#include "core/analysis.hpp"

#include <algorithm>
#include <set>

#include "dataplane/as_type.hpp"
#include "util/check.hpp"

namespace irp {
namespace {

/// Destination content service of a traceroute (by its target hostname).
const ContentService* service_of(const PassiveDataset& ds,
                                 const GeneratedInternet& net,
                                 std::size_t traceroute_index) {
  const auto& tr = ds.traceroutes[traceroute_index];
  return net.content.service_for(tr.hostname);
}

}  // namespace

DecisionClassifier make_classifier(const PassiveDataset& ds) {
  return DecisionClassifier{&ds.inferred, ds.rib.num_ases(),
                            &ds.hybrid, &ds.siblings, &ds.observations};
}

std::vector<TracerouteGeo> geolocate_traceroutes(
    const PassiveDataset& ds, const GeneratedInternet& net) {
  std::vector<TracerouteGeo> out;
  out.reserve(ds.traceroutes.size());
  for (const Traceroute& tr : ds.traceroutes) {
    TracerouteGeo geo;
    std::set<Continent> continents;
    std::set<CountryId> countries;
    bool complete = true;
    std::vector<Ipv4Addr> addresses{tr.src_address};
    for (const auto& hop : tr.hops) addresses.push_back(hop.address);
    for (Ipv4Addr addr : addresses) {
      const auto city = net.geo->locate_city(addr);
      if (!city) {
        complete = false;
        continue;
      }
      countries.insert(net.world.city(*city).country);
      continents.insert(net.world.continent_of_city(*city));
    }
    if (complete && continents.size() == 1)
      geo.single_continent = *continents.begin();
    if (complete && countries.size() == 1)
      geo.single_country = *countries.begin();
    out.push_back(geo);
  }
  return out;
}

Table1Report compute_table1(const PassiveDataset& ds,
                            const GeneratedInternet& net) {
  AsTypeClassifier types{&net.topology, net.measurement_epoch};
  struct Agg {
    std::size_t probes = 0;
    std::set<Asn> ases;
    std::set<CountryId> countries;
  };
  std::map<AsCategory, Agg> agg;
  std::set<Asn> all_ases;
  std::set<CountryId> all_countries;
  for (const Probe& p : ds.probes) {
    Agg& a = agg[types.classify(p.asn)];
    ++a.probes;
    a.ases.insert(p.asn);
    a.countries.insert(p.country);
    all_ases.insert(p.asn);
    all_countries.insert(p.country);
  }
  Table1Report report;
  for (AsCategory c : {AsCategory::kStub, AsCategory::kSmallIsp,
                       AsCategory::kLargeIsp, AsCategory::kTier1}) {
    const Agg& a = agg[c];
    report.rows.push_back({std::string(as_category_name(c)), a.probes,
                           a.ases.size(), a.countries.size()});
  }
  report.total_probes = ds.probes.size();
  report.total_ases = all_ases.size();
  report.total_countries = all_countries.size();
  return report;
}

Figure1Report compute_figure1(const PassiveDataset& ds,
                              const DecisionClassifier& classifier) {
  Figure1Report report;
  for (const NamedScenario& scenario : figure1_scenarios()) {
    CategoryBreakdown breakdown;
    for (const RouteDecision& d : ds.decisions)
      breakdown.add(classifier.classify(d, scenario.options));
    report.scenarios.emplace_back(scenario.name, breakdown);
  }
  return report;
}

InferredTopology prune_stale_links(const InferredTopology& topo,
                                   const NeighborHistoryDb& history,
                                   int epoch) {
  InferredTopology out;
  for (const auto& [pair, rel] : topo.links()) {
    if (history.is_stale(pair.first, pair.second, epoch)) continue;
    out.set(pair.first, pair.second, rel);
  }
  return out;
}

SkewReport compute_skew(const PassiveDataset& ds, const GeneratedInternet& net,
                        const DecisionClassifier& classifier) {
  const ScenarioOptions simple;
  SkewReport report;

  // Violations per (violation type, source AS) and (type, dest AS).
  std::map<DecisionCategory, Counter<Asn>> by_source, by_dest;
  Counter<Asn> all_by_source;
  Counter<std::string> by_service;
  std::size_t violations = 0;

  std::vector<std::size_t> violation_indices;
  std::vector<DecisionCategory> categories(ds.decisions.size());
  for (std::size_t i = 0; i < ds.decisions.size(); ++i) {
    const RouteDecision& d = ds.decisions[i];
    const DecisionCategory c = classifier.classify(d, simple);
    categories[i] = c;
    if (!is_violation(c)) continue;
    ++violations;
    violation_indices.push_back(i);
    by_source[c].add(d.src_asn);
    by_dest[c].add(d.dest_asn);
    all_by_source.add(d.src_asn);
    const ContentService* svc = service_of(ds, net, d.traceroute_index);
    by_service.add(svc != nullptr ? svc->org_name : "(unknown)");
  }

  for (auto& [cat, counter] : by_source) {
    std::vector<std::size_t> counts;
    for (const auto& [asn, n] : counter.raw()) counts.push_back(n);
    report.curves[cat].by_source = ranked_cdf(counts);
  }
  for (auto& [cat, counter] : by_dest) {
    std::vector<std::size_t> counts;
    for (const auto& [asn, n] : counter.raw()) counts.push_back(n);
    report.curves[cat].by_dest = ranked_cdf(counts);
  }

  for (const auto& [name, n] : by_service.sorted_desc())
    report.top_dest_services.emplace_back(
        name, violations == 0 ? 0.0 : double(n) / double(violations));
  for (const auto& [asn, n] : all_by_source.sorted_desc()) {
    report.top_sources.emplace_back(
        asn, violations == 0 ? 0.0 : double(n) / double(violations));
    if (report.top_sources.size() >= 10) break;
  }

  {
    std::vector<double> src_counts, dst_counts;
    Counter<Asn> all_by_dest;
    for (const auto& [cat, counter] : by_dest)
      for (const auto& [asn, n] : counter.raw()) all_by_dest.add(asn, n);
    for (const auto& [asn, n] : all_by_source.raw())
      src_counts.push_back(double(n));
    for (const auto& [asn, n] : all_by_dest.raw())
      dst_counts.push_back(double(n));
    report.gini_sources = gini(std::move(src_counts));
    report.gini_dests = gini(std::move(dst_counts));
  }

  // Stale-link attribution for the second wide-deployment service: how many
  // of its violations disappear once stale links are pruned from the
  // aggregated topology.
  const auto& services = net.content.services();
  const ContentService* second = nullptr;
  int wide_seen = 0;
  for (const auto& svc : services) {
    if (!svc.wide_deployment) continue;
    if (++wide_seen == 2) {
      second = &svc;
      break;
    }
  }
  if (second != nullptr) {
    report.second_service_name = second->org_name;
    const InferredTopology pruned = prune_stale_links(
        ds.inferred, net.neighbor_history, net.measurement_epoch);
    DecisionClassifier pruned_classifier{
        &pruned, ds.rib.num_ases(), &ds.hybrid, &ds.siblings,
        &ds.observations};
    std::size_t total = 0, explained = 0;
    for (std::size_t i : violation_indices) {
      const RouteDecision& d = ds.decisions[i];
      // The paper counts violations whose *destination AS* is the provider's
      // own network (Netflix's AS), not its off-net caches.
      if (d.dest_asn != second->origin_asn) continue;
      ++total;
      if (!is_violation(pruned_classifier.classify(d, simple))) ++explained;
    }
    report.stale_fraction_second_service =
        total == 0 ? 0.0 : double(explained) / double(total);
  }

  return report;
}

Figure3Report compute_figure3(const PassiveDataset& ds,
                              const GeneratedInternet& net,
                              const DecisionClassifier& classifier) {
  const ScenarioOptions simple;
  const auto geos = geolocate_traceroutes(ds, net);
  Figure3Report report;
  std::size_t continental_traceroutes = 0;
  for (const auto& g : geos)
    if (g.single_continent) ++continental_traceroutes;
  report.continental_traceroute_fraction =
      geos.empty() ? 0.0
                   : double(continental_traceroutes) / double(geos.size());

  for (const RouteDecision& d : ds.decisions) {
    const DecisionCategory c = classifier.classify(d, simple);
    const auto& g = geos[d.traceroute_index];
    if (g.single_continent) {
      report.per_continent[*g.single_continent].add(c);
      report.continental_all.add(c);
    } else {
      report.intercontinental.add(c);
    }
  }
  return report;
}

Table3Report compute_table3(const PassiveDataset& ds,
                            const GeneratedInternet& net,
                            const DecisionClassifier& classifier) {
  const ScenarioOptions simple;
  const auto geos = geolocate_traceroutes(ds, net);

  std::map<Continent, Table3Report::Row> rows;
  std::size_t total = 0, explained_total = 0;

  for (const RouteDecision& d : ds.decisions) {
    const auto& g = geos[d.traceroute_index];
    if (!g.single_country) continue;  // Not a domestic traceroute.
    const DecisionCategory c = classifier.classify(d, simple);
    if (!is_violation(c)) continue;

    const Continent continent =
        net.world.continent_of_country(*g.single_country);
    Table3Report::Row& row = rows[continent];
    row.continent = continent;
    ++row.domestic_violations;
    ++total;

    // Is the model's preferred (shortest GR) path multinational? Countries
    // come from whois, which registers one country per AS — the limitation
    // the paper notes for multinational networks.
    const GrPathSet& ps = classifier.path_set(d, simple);
    const std::vector<Asn> witness = ps.witness_shortest(d.decider);
    if (witness.empty()) continue;
    const std::string src_country =
        net.whois.record(d.src_asn).country_code;
    const std::string dst_country =
        net.whois.record(d.dest_asn).country_code;
    bool multinational = false;
    for (Asn asn : witness) {
      const std::string& cc = net.whois.record(asn).country_code;
      if (cc != src_country && cc != dst_country) {
        multinational = true;
        break;
      }
    }
    if (multinational) {
      ++row.explained;
      ++explained_total;
    }
  }

  Table3Report report;
  for (auto& [continent, row] : rows) report.rows.push_back(row);
  report.overall_explained_fraction =
      total == 0 ? 0.0 : double(explained_total) / double(total);
  return report;
}

Table4Report compute_table4(const PassiveDataset& ds,
                            const GeneratedInternet& net,
                            const DecisionClassifier& classifier) {
  const ScenarioOptions simple;
  const auto cable_asns = net.cable_registry.operator_asns();
  auto is_cable = [&](Asn asn) {
    return std::binary_search(cable_asns.begin(), cable_asns.end(), asn);
  };

  CategoryBreakdown all;
  CategoryBreakdown involving;
  for (const RouteDecision& d : ds.decisions) {
    const DecisionCategory c = classifier.classify(d, simple);
    all.add(c);
    const bool involves = std::any_of(d.measured_remaining.begin(),
                                      d.measured_remaining.end(), is_cable);
    if (involves) involving.add(c);
  }

  Table4Report report;
  auto frac = [&](DecisionCategory c) {
    const std::size_t denom = all.count(c);
    return denom == 0 ? 0.0 : double(involving.count(c)) / double(denom);
  };
  report.nonbest_short = frac(DecisionCategory::kNonBestShort);
  report.best_long = frac(DecisionCategory::kBestLong);
  report.nonbest_long = frac(DecisionCategory::kNonBestLong);
  report.cable_decisions = involving.total();
  report.cable_decision_deviation = involving.violation_share();

  std::size_t paths_with_cable = 0;
  std::size_t paths_total = 0;
  std::set<std::size_t> seen;
  for (const RouteDecision& d : ds.decisions) {
    if (!seen.insert(d.traceroute_index).second) continue;
    ++paths_total;
    // The full AS path is the source plus the first decision's remainder;
    // decisions are emitted in path order so the first one we meet for a
    // traceroute covers the whole path.
    if (std::any_of(d.measured_remaining.begin(), d.measured_remaining.end(),
                    is_cable))
      ++paths_with_cable;
  }
  report.paths_with_cable =
      paths_total == 0 ? 0.0 : double(paths_with_cable) / double(paths_total);
  return report;
}

}  // namespace irp
