#include "core/passive_study.hpp"

#include <algorithm>
#include <map>

#include "dataplane/dns.hpp"
#include "util/check.hpp"

namespace irp {
namespace {

/// Runs per-epoch chunked convergences announcing one prefix per AS and
/// feeds the corpus — the route-collector view of each monthly snapshot.
///
/// Each (epoch, batch) convergence owns a private BgpEngine over the shared
/// immutable topology/policy, so batches run concurrently on `pool`; feeds
/// are merged in deterministic (epoch, batch-index) order afterwards, which
/// keeps the corpus byte-identical to a serial run.
void build_corpus(const GeneratedInternet& net, const GroundTruthPolicy& policy,
                  int batch, ThreadPool& pool,
                  BgpEngine::StatePool& state_pool, PathCorpus& corpus) {
  const Topology& topo = net.topology;
  std::vector<std::pair<Ipv4Prefix, Asn>> origins;
  topo.for_each_as([&](const AsNode& node) {
    if (!node.prefixes.empty())
      origins.emplace_back(node.prefixes.front().prefix, node.asn);
  });

  struct Job {
    int epoch;
    std::size_t start;
  };
  std::vector<Job> jobs;
  for (int epoch = 0; epoch <= net.measurement_epoch; ++epoch)
    for (std::size_t start = 0; start < origins.size();
         start += static_cast<std::size_t>(batch))
      jobs.push_back({epoch, start});

  // Engines are short-lived (one per job) but their per-prefix state is
  // O(num_ases · batch); the shared pool recycles it across jobs instead of
  // re-mallocing it for every (epoch, batch).
  const std::vector<std::vector<FeedEntry>> feeds =
      pool.parallel_map(jobs.size(), [&](std::size_t j) {
        const Job& job = jobs[j];
        BgpEngine engine{&topo, &policy, job.epoch, &state_pool};
        const std::size_t end = std::min(
            origins.size(), job.start + static_cast<std::size_t>(batch));
        for (std::size_t i = job.start; i < end; ++i)
          engine.announce(origins[i].first, origins[i].second);
        engine.run();
        return engine.feed(net.collector_peers);
      });

  for (std::size_t j = 0; j < jobs.size(); ++j)
    for (const FeedEntry& e : feeds[j]) corpus.add_feed(jobs[j].epoch, e);
}

/// One announcement of announce_all(), in its order.
struct Announcement {
  Ipv4Prefix prefix;
  Asn origin = 0;
  AnnounceOptions options;
};

/// The announcements announce_all() makes for `origins`, in its order: every
/// originated prefix of each AS, with its selective-announcement and
/// prepending options.
std::vector<Announcement> announcements_of(const Topology& topo,
                                           const std::vector<Asn>& origins) {
  std::vector<Announcement> out;
  for (Asn asn : origins) {
    for (const auto& op : topo.as_node(asn).prefixes) {
      Announcement a{op.prefix, asn, {}};
      a.options.only_links = op.announce_only_on;
      a.options.prepend_on = op.prepend_on;
      out.push_back(std::move(a));
    }
  }
  return out;
}

}  // namespace

std::vector<Asn> content_related_ases(const GeneratedInternet& net) {
  std::set<Asn> ases;
  for (const auto& service : net.content.services()) {
    ases.insert(service.origin_asn);
    for (const auto& cache : service.caches) ases.insert(cache.host_asn);
  }
  for (Asn asn : net.content_asns) ases.insert(asn);
  return {ases.begin(), ases.end()};
}

void announce_all(BgpEngine& engine, const Topology& topo,
                  const std::vector<Asn>& origins) {
  for (Announcement& a : announcements_of(topo, origins))
    engine.announce(a.prefix, a.origin, std::move(a.options));
  engine.run();
}

ConvergedRib converge_rib(const Topology& topo, const GroundTruthPolicy& policy,
                          int epoch, const std::vector<Asn>& origins,
                          int batch, ThreadPool& pool,
                          BgpEngine::StatePool* state_pool) {
  IRP_CHECK(batch >= 1, "converge_rib needs a positive batch size");
  const std::vector<Announcement> announcements =
      announcements_of(topo, origins);
  const auto shard_size = static_cast<std::size_t>(batch);
  const std::size_t num_shards =
      (announcements.size() + shard_size - 1) / shard_size;
  // Each shard converges on a private engine and freezes it, handing its
  // path table to the RIB; the engine's per-AS state goes back to the pool.
  // BGP runs per prefix: the logical clock is only compared between routes
  // of one prefix, so splitting the prefixes changes no route.
  std::vector<ConvergedRib> shards =
      pool.parallel_map(num_shards, [&](std::size_t s) {
        BgpEngine engine{&topo, &policy, epoch, state_pool};
        const std::size_t end =
            std::min(announcements.size(), (s + 1) * shard_size);
        for (std::size_t i = s * shard_size; i < end; ++i)
          engine.announce(announcements[i].prefix, announcements[i].origin,
                          announcements[i].options);
        engine.run();
        return std::move(engine).freeze();
      });
  return ConvergedRib::concat(std::move(shards));
}

PassiveDataset run_passive_study(const GeneratedInternet& net,
                                 const PassiveStudyConfig& config) {
  PassiveDataset ds;
  Rng rng{config.seed};
  const Topology& topo = net.topology;
  ThreadPool pool{config.parallel.threads};

  ds.policy = std::make_unique<GroundTruthPolicy>(&topo);

  {
    // Both convergence phases recycle one set of per-prefix engine states;
    // the pool frees them once the measurement epoch is frozen.
    BgpEngine::StatePool state_pool;

    // -- 1. Inference corpus across all snapshots.
    build_corpus(net, *ds.policy, config.snapshot_batch, pool, state_pool,
                 ds.corpus);

    // -- 2. Measurement epoch with all content-related prefixes, converged
    // in shards and frozen into the RIB every later step reads.
    ds.rib = converge_rib(topo, *ds.policy, net.measurement_epoch,
                          content_related_ases(net), config.snapshot_batch,
                          pool, &state_pool);
  }

  // -- 3. Probes and traceroutes.
  ProbeSampler sampler{&topo, &net.world, config.probes, rng.fork()};
  const auto population = sampler.platform_population();
  ds.probes = sampler.sample(population);

  ds.ip_to_as = IpToAsMap::from_topology(topo);
  ContentResolver resolver{&topo, &net.world, &net.content};
  TracerouteSim tracer{&topo, &ds.rib};

  // Hostname list, shuffled once; each probe measures a rotating window so
  // every hostname is covered while respecting the probing budget.
  std::vector<std::string> hostnames;
  for (const auto& service : net.content.services())
    for (const auto& h : service.hostnames) {
      hostnames.push_back(h.name);
      // The wide deployers are the traffic heavyweights (the study selected
      // its targets by downstream bytes): weight their hostnames double.
      if (service.wide_deployment) hostnames.push_back(h.name);
    }
  rng.shuffle(hostnames);
  IRP_CHECK(!hostnames.empty(), "no content hostnames to measure");
  const int per_probe =
      std::min<int>(config.hostnames_per_probe, int(hostnames.size()));

  for (std::size_t pi = 0; pi < ds.probes.size(); ++pi) {
    const Probe& probe = ds.probes[pi];
    for (int h = 0; h < per_probe; ++h) {
      const std::string& hostname =
          hostnames[(pi * per_probe + h) % hostnames.size()];
      const auto answer = resolver.resolve(hostname, probe.asn);
      IRP_CHECK(answer.has_value(), "catalog hostname failed to resolve");
      auto tr = tracer.run(probe.asn, probe.address, answer->address,
                           answer->prefix);
      if (!tr) continue;  // Probe's AS has no route at all.
      tr->hostname = hostname;
      ds.traceroutes.push_back(std::move(*tr));
    }
  }

  // -- 4. Convert to AS paths and extract decisions.
  std::set<Asn> dest_ases;
  std::set<Asn> decider_ases;
  for (std::size_t ti = 0; ti < ds.traceroutes.size(); ++ti) {
    const Traceroute& tr = ds.traceroutes[ti];
    if (!tr.reached) continue;
    std::vector<Ipv4Addr> ips{tr.src_address};
    for (const auto& hop : tr.hops) ips.push_back(hop.address);
    const std::vector<Asn> as_path = ds.ip_to_as.as_path_of(ips);
    if (as_path.size() < 2) continue;
    dest_ases.insert(as_path.back());

    // City where each AS was entered (first hop mapping to that AS),
    // resolved through the (imperfect) geolocation database.
    std::map<Asn, CityId> entry_city;
    for (const auto& hop : tr.hops) {
      const auto asn = ds.ip_to_as.lookup(hop.address);
      if (!asn || entry_city.count(*asn)) continue;
      const auto city = net.geo->locate_city(hop.address);
      if (city) entry_city[*asn] = *city;
    }

    for (std::size_t i = 0; i + 1 < as_path.size(); ++i) {
      RouteDecision d;
      d.decider = as_path[i];
      d.next_hop = as_path[i + 1];
      d.dest_asn = as_path.back();
      d.src_asn = as_path.front();
      d.remaining_len = as_path.size() - 1 - i;
      d.dst_prefix = tr.dst_prefix;
      d.origin_asn = as_path.back();
      auto city = entry_city.find(d.next_hop);
      if (city != entry_city.end()) d.interconnect_city = city->second;
      d.measured_remaining.assign(as_path.begin() + long(i), as_path.end());
      d.traceroute_index = ti;
      decider_ases.insert(d.decider);
      ds.decisions.push_back(std::move(d));
    }
  }
  ds.num_destination_ases = dest_ases.size();
  ds.num_observed_decider_ases = decider_ases.size();

  // -- 5. Inference products.
  ds.measurement_feed = ds.rib.feed(net.collector_peers);
  for (const FeedEntry& e : ds.measurement_feed)
    ds.corpus.add_feed(net.measurement_epoch, e);

  // Per-snapshot inference is a pure function of the (now frozen) corpus;
  // parallel_map returns the snapshots in ascending epoch order regardless
  // of which thread computed which epoch.
  ds.snapshots = pool.parallel_map(
      static_cast<std::size_t>(net.measurement_epoch + 1),
      [&](std::size_t epoch) {
        return infer_snapshot(ds.corpus.paths(static_cast<int>(epoch)),
                              config.inference);
      });
  ds.inferred = aggregate_snapshots(ds.snapshots);

  ds.siblings = infer_siblings(net.whois, net.soa);
  Rng hybrid_rng = rng.fork();
  ds.hybrid = build_hybrid_dataset(topo, config.hybrid_coverage, hybrid_rng);
  ds.observations.ingest(ds.measurement_feed);

  return ds;
}

}  // namespace irp
