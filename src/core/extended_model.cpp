#include "core/extended_model.hpp"

namespace irp {

InferredTopology apply_cable_correction(const InferredTopology& topo,
                                        const CableRegistry& cables) {
  InferredTopology out;
  for (const auto& [pair, rel] : topo.links()) {
    const auto [a, b] = pair;
    const bool a_cable = cables.is_cable_operator(a);
    const bool b_cable = cables.is_cable_operator(b);
    if (a_cable && !b_cable)
      out.set(a, b, InferredRel::kAProviderOfB);
    else if (b_cable && !a_cable)
      out.set(a, b, InferredRel::kBProviderOfA);
    else
      out.set(a, b, rel);
  }
  return out;
}

ExtendedModelReport compute_extended_model(const PassiveDataset& ds,
                                           const GeneratedInternet& net) {
  ExtendedModelReport report;
  const std::size_t num_ases = ds.rib.num_ases();
  const ScenarioOptions simple;
  const ScenarioOptions all1{.use_hybrid = true,
                             .use_siblings = true,
                             .psp = PspMode::kCriteria1};

  // Baselines on the raw aggregated topology.
  {
    const DecisionClassifier classifier{&ds.inferred, num_ases, &ds.hybrid,
                                        &ds.siblings, &ds.observations};
    for (const RouteDecision& d : ds.decisions) {
      report.simple.add(classifier.classify(d, simple));
      report.all_refinements.add(classifier.classify(d, all1));
    }
  }

  // Extended: prune stale links, correct cable relationships, re-run All-1.
  const InferredTopology pruned = prune_stale_links(
      ds.inferred, net.neighbor_history, net.measurement_epoch);
  const InferredTopology corrected =
      apply_cable_correction(pruned, net.cable_registry);
  {
    const DecisionClassifier classifier{&corrected, num_ases, &ds.hybrid,
                                        &ds.siblings, &ds.observations};
    for (const RouteDecision& d : ds.decisions)
      report.extended.add(classifier.classify(d, all1));
  }

  // Attribute the gain of each correction in isolation.
  {
    const DecisionClassifier stale_only{&pruned, num_ases, &ds.hybrid,
                                        &ds.siblings, &ds.observations};
    const InferredTopology cable_only_topo =
        apply_cable_correction(ds.inferred, net.cable_registry);
    const DecisionClassifier cable_only{&cable_only_topo, num_ases,
                                        &ds.hybrid, &ds.siblings,
                                        &ds.observations};
    CategoryBreakdown stale_b, cable_b;
    for (const RouteDecision& d : ds.decisions) {
      stale_b.add(stale_only.classify(d, all1));
      cable_b.add(cable_only.classify(d, all1));
    }
    const double base =
        report.all_refinements.share(DecisionCategory::kBestShort);
    report.stale_gain =
        stale_b.share(DecisionCategory::kBestShort) - base;
    report.cable_gain =
        cable_b.share(DecisionCategory::kBestShort) - base;
  }
  return report;
}

}  // namespace irp
