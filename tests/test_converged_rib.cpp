// Equivalence bar for the sharded measurement-epoch convergence: the
// ConvergedRib that converge_rib() builds from engine shards on a thread
// pool must hold exactly what one monolithic BgpEngine shows after
// announce_all() — every (prefix, AS) slot's selected route (path value,
// via link, next hop, self-originated), its alternates in Adj-RIB-In order,
// the looking-glass view, and the collector feed — at every thread count
// and shard size. Plus a size gate on the RIB's bytes per slot.
#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>

#include "bgp/engine.hpp"
#include "core/passive_study.hpp"
#include "test_support.hpp"
#include "util/check.hpp"

namespace irp {
namespace {

struct Fixture {
  std::unique_ptr<GeneratedInternet> net;
  std::unique_ptr<GroundTruthPolicy> policy;
  std::vector<Asn> origins;
  std::unique_ptr<BgpEngine> reference;  ///< Monolithic announce_all().
};

const Fixture& fixture() {
  static const Fixture fx = [] {
    Fixture f;
    f.net = generate_internet(test::small_generator_config());
    f.policy = std::make_unique<GroundTruthPolicy>(&f.net->topology);
    f.origins = content_related_ases(*f.net);
    f.reference = std::make_unique<BgpEngine>(
        &f.net->topology, f.policy.get(), f.net->measurement_epoch);
    announce_all(*f.reference, f.net->topology, f.origins);
    return f;
  }();
  return fx;
}

ConvergedRib converge(int threads, int batch) {
  const Fixture& f = fixture();
  ThreadPool pool{threads};
  BgpEngine::StatePool states;
  return converge_rib(f.net->topology, *f.policy, f.net->measurement_epoch,
                      f.origins, batch, pool, &states);
}

/// Every observable of one prefix in the monolithic engine.
std::string dump_engine_prefix(const BgpEngine& engine,
                               const Ipv4Prefix& prefix) {
  const Topology& topo = engine.topology();
  std::ostringstream out;
  for (Asn asn = 1; asn <= topo.num_ases(); ++asn) {
    const BgpEngine::Selected* sel = engine.best(asn, prefix);
    const LinkId via = sel != nullptr ? sel->via_link : kInvalidLink;
    if (sel != nullptr)
      out << "AS" << asn << " sel [" << sel->path.to_string()
          << "] via=" << sel->via_link << " nh=" << sel->next_hop
          << " self=" << sel->self_originated << '\n';
    const std::vector<Route> rib = engine.routes_at(asn, prefix);
    for (const Route& r : rib) {
      if (r.via_link == via) continue;  // The selected route.
      out << "AS" << asn << " alt [" << r.path.to_string()
          << "] from=" << r.from_asn << '\n';
    }
    for (LinkId lid : topo.links_of(asn)) {
      const Asn neighbor = topo.other_end(topo.link(lid), asn);
      bool learned = false;
      for (const Route& r : rib) learned = learned || r.from_asn == neighbor;
      out << (learned ? 'L' : '-');
    }
    out << '\n';
  }
  return out.str();
}

/// The same observables of one prefix, read from a frozen RIB.
std::string dump_rib_prefix(const ConvergedRib& rib, const Topology& topo,
                            std::size_t index) {
  const PathTable& paths = rib.paths(index);
  std::ostringstream out;
  for (Asn asn = 1; asn <= topo.num_ases(); ++asn) {
    const std::optional<ConvergedRib::Selected> sel = rib.best(index, asn);
    if (sel)
      out << "AS" << asn << " sel ["
          << paths.materialize(sel->path).to_string()
          << "] via=" << sel->via_link << " nh=" << sel->next_hop
          << " self=" << sel->self_originated << '\n';
    const ConvergedRib::Alternates alts = rib.alternates(index, asn);
    for (std::size_t a = 0; a < alts.size(); ++a)
      out << "AS" << asn << " alt ["
          << paths.materialize(alts.paths[a]).to_string()
          << "] from=" << alts.from_asn[a] << '\n';
    for (LinkId lid : topo.links_of(asn)) {
      const Asn neighbor = topo.other_end(topo.link(lid), asn);
      out << (rib.has_route_from(index, asn, neighbor) ? 'L' : '-');
    }
    out << '\n';
  }
  return out.str();
}

std::string dump_feed(const std::vector<FeedEntry>& feed) {
  std::ostringstream out;
  for (const FeedEntry& e : feed)
    out << e.peer << ' ' << e.prefix.to_string() << " ["
        << e.path.to_string() << "]\n";
  return out.str();
}

void expect_matches_reference(const ConvergedRib& rib,
                              const std::string& label) {
  const Fixture& f = fixture();
  const BgpEngine& engine = *f.reference;
  ASSERT_EQ(rib.num_ases(), f.net->topology.num_ases()) << label;
  ASSERT_EQ(rib.prefixes(), engine.prefixes()) << label;
  for (std::size_t index = 0; index < rib.num_prefixes(); ++index) {
    const Ipv4Prefix& prefix = rib.prefixes()[index];
    ASSERT_EQ(rib.find(prefix), index) << label;
    ASSERT_EQ(dump_rib_prefix(rib, f.net->topology, index),
              dump_engine_prefix(engine, prefix))
        << label << " prefix " << prefix.to_string();
  }
  EXPECT_EQ(dump_feed(rib.feed(f.net->collector_peers)),
            dump_feed(engine.feed(f.net->collector_peers)))
      << label;
}

TEST(ConvergedRib, FrozenEngineMatchesTheEngine) {
  const Fixture& f = fixture();
  ASSERT_GT(f.reference->prefixes().size(), 8u);
  expect_matches_reference(f.reference->freeze(), "borrowed freeze");
  EXPECT_FALSE(f.reference->freeze().find(Ipv4Prefix{}).has_value());
}

TEST(ConvergedRib, ShardedConvergenceEqualsMonolithicAtAnyThreadsAndBatch) {
  const int num_prefixes =
      static_cast<int>(fixture().reference->prefixes().size());
  for (const int threads : {1, 2, 4}) {
    for (const int batch : {1, 7, 64, num_prefixes + 5}) {
      const ConvergedRib rib = converge(threads, batch);
      expect_matches_reference(rib, "threads=" + std::to_string(threads) +
                                        " batch=" + std::to_string(batch));
    }
  }
}

TEST(ConvergedRib, ConcatRejectsDuplicatePrefixes) {
  const Fixture& f = fixture();
  std::vector<ConvergedRib> parts;
  parts.push_back(f.reference->freeze());
  parts.push_back(f.reference->freeze());
  EXPECT_THROW((void)ConvergedRib::concat(std::move(parts)), CheckError);
}

// Column bytes per (prefix, AS) slot of the measurement RIB on the fixture,
// recorded when the layout landed (the live engine it replaces holds
// several hundred bytes per slot). The layout is exact-size, so the value
// is deterministic; growing it past the bound is a memory regression of the
// study's largest structure.
constexpr double kRecordedColumnBytesPerSlot = 22.58;

TEST(ConvergedRib, ColumnBytesPerSlotStayWithinTheRecordedBound) {
  const ConvergedRib rib = converge(2, 64);
  const double slots = double(rib.num_prefixes()) * double(rib.num_ases());
  const double per_slot = double(rib.column_bytes()) / slots;
  EXPECT_LE(per_slot, kRecordedColumnBytesPerSlot * 1.25)
      << "column bytes per slot: " << per_slot;
}

}  // namespace
}  // namespace irp
