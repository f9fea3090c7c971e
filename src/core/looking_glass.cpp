#include "core/looking_glass.hpp"

#include <set>

namespace irp {

PspValidationReport validate_psp(const PassiveDataset& ds,
                                 const GeneratedInternet& net,
                                 const DecisionClassifier& classifier) {
  const ScenarioOptions simple;
  const ScenarioOptions psp1{.psp = PspMode::kCriteria1};

  // PSP cases: violations the criteria-1 restriction explains.
  std::set<std::pair<Asn, Ipv4Prefix>> cases;
  for (const RouteDecision& d : ds.decisions) {
    if (!is_violation(classifier.classify(d, simple))) continue;
    if (is_violation(classifier.classify(d, psp1))) continue;
    cases.insert({d.dest_asn, d.dst_prefix});
  }

  PspValidationReport report;
  report.psp_cases = cases.size();

  std::set<Asn> neighbors_seen;
  std::set<Asn> neighbors_lg;
  for (const auto& [origin, prefix] : cases) {
    for (Asn n : ds.inferred.neighbors(origin)) {
      // Criteria 1 removed the edge n->origin for this prefix iff the feeds
      // never showed origin announcing the prefix to n.
      if (ds.observations.announced(origin, n, prefix)) continue;
      neighbors_seen.insert(n);
      if (!net.topology.as_node(n).has_looking_glass) continue;
      neighbors_lg.insert(n);

      // Looking-glass query: does n hold a route for the prefix learned
      // directly from origin?
      const std::optional<std::size_t> index = ds.rib.find(prefix);
      ++report.checked;
      if (!index || !ds.rib.has_route_from(*index, n, origin))
        ++report.correct;
    }
  }
  report.unique_neighbors = neighbors_seen.size();
  report.neighbors_with_lg = neighbors_lg.size();
  return report;
}

}  // namespace irp
