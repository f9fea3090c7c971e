#include "serve/oracle_snapshot.hpp"

#include <algorithm>
#include <optional>

#include "core/passive_study.hpp"
#include "serve/byte_io.hpp"
#include "util/check.hpp"
#include "util/file.hpp"

namespace irp {
namespace {

constexpr std::size_t kHeaderBytes = 24;  // magic + version + size + checksum.
constexpr std::string_view kContext = "oracle snapshot";

/// Re-interns paths of one source table into another, memoized by source
/// id. Walking to the deepest unmapped suffix and prepending outward issues
/// the same root()/prepend() sequence as `to.intern(from.materialize(id))`,
/// so the destination ids are identical, but no hop vector is built and
/// shared suffixes are mapped once.
class PathTranslator {
 public:
  PathTranslator(const PathTable& from, PathTable& to)
      : from_(from), to_(to), memo_(from.num_paths(), kUnmapped) {}

  PathId operator()(PathId id) {
    PathId cur = id;
    while (memo_[cur] == kUnmapped && from_.num_hops(cur) > 0) {
      pending_.push_back(cur);
      cur = from_.flat_node(cur).tail;
    }
    if (memo_[cur] == kUnmapped) memo_[cur] = to_.root(from_.poison_set(cur));
    PathId mapped = memo_[cur];
    for (; !pending_.empty(); pending_.pop_back()) {
      mapped = to_.prepend(mapped, from_.front(pending_.back()));
      memo_[pending_.back()] = mapped;
    }
    return mapped;
  }

 private:
  static constexpr PathId kUnmapped = 0xFFFFFFFFu;
  const PathTable& from_;
  PathTable& to_;
  std::vector<PathId> memo_;
  std::vector<PathId> pending_;  ///< Unmapped suffix chain, outermost first.
};

}  // namespace

std::size_t OracleSnapshot::num_route_entries() const {
  std::size_t n = 0;
  for (const PrefixRoutes& pr : routes) n += pr.entries.size();
  return n;
}

std::string OracleSnapshot::to_bytes() const {
  ByteWriter w;
  w.u32(num_ases);

  w.u32(static_cast<std::uint32_t>(relationships.size()));
  for (const RelationshipEntry& r : relationships) {
    w.u32(r.a);
    w.u32(r.b);
    w.u8(r.rel);
  }

  w.u32(static_cast<std::uint32_t>(sibling_groups.size()));
  for (const auto& group : sibling_groups) w.asns(group);

  w.u32(static_cast<std::uint32_t>(hybrid_entries.size()));
  for (const HybridRecord& h : hybrid_entries) {
    w.u32(h.a);
    w.u32(h.b);
    w.u32(h.city);
    w.u8(h.rel);
  }
  w.u32(static_cast<std::uint32_t>(partial_transit.size()));
  for (const auto& [provider, customer] : partial_transit) {
    w.u32(provider);
    w.u32(customer);
  }

  w.u32(static_cast<std::uint32_t>(observations.size()));
  for (const ObservationBlock& block : observations) {
    w.prefix(block.prefix);
    w.u32(static_cast<std::uint32_t>(block.pairs.size()));
    for (const auto& [origin, neighbor] : block.pairs) {
      w.u32(origin);
      w.u32(neighbor);
    }
  }

  w.u32(static_cast<std::uint32_t>(paths.num_paths()));
  for (PathId id = 0; id < paths.num_paths(); ++id) {
    const PathTable::FlatNode n = paths.flat_node(id);
    w.u32(n.head);
    w.u32(n.tail);
    w.u32(n.num_hops);
    w.u32(n.poison);
  }
  w.u32(static_cast<std::uint32_t>(paths.num_poison_sets()));
  for (std::size_t i = 0; i < paths.num_poison_sets(); ++i)
    w.asns(paths.poison_set_at(i));

  w.u32(static_cast<std::uint32_t>(routes.size()));
  for (const PrefixRoutes& pr : routes) {
    w.prefix(pr.prefix);
    w.u32(pr.origin);
    w.u32(static_cast<std::uint32_t>(pr.entries.size()));
    for (const RouteEntry& e : pr.entries) {
      w.u32(e.asn);
      w.u32(e.selected);
      w.u32(e.next_hop);
      w.u8(e.self_originated ? 1 : 0);
      w.u32(static_cast<std::uint32_t>(e.alternates.size()));
      for (const AlternateRoute& alt : e.alternates) {
        w.u32(alt.path);
        w.u32(alt.from_asn);
      }
    }
  }

  const std::string payload = w.take();
  ByteWriter header;
  header.u32(kOracleSnapshotMagic);
  header.u32(kOracleSnapshotVersion);
  header.u64(payload.size());
  header.u64(fnv1a64(payload));
  return header.take() + payload;
}

OracleSnapshot OracleSnapshot::from_bytes(std::string_view bytes) {
  IRP_CHECK(bytes.size() >= kHeaderBytes,
            "oracle snapshot: image smaller than header");
  ByteReader header{bytes.substr(0, kHeaderBytes), std::string(kContext)};
  IRP_CHECK(header.u32() == kOracleSnapshotMagic,
            "oracle snapshot: bad magic (not an oracle snapshot)");
  const std::uint32_t version = header.u32();
  IRP_CHECK(version == kOracleSnapshotVersion,
            "oracle snapshot: unsupported version " + std::to_string(version));
  const std::uint64_t payload_size = header.u64();
  const std::uint64_t checksum = header.u64();
  IRP_CHECK(payload_size == bytes.size() - kHeaderBytes,
            "oracle snapshot: truncated image (payload size mismatch)");
  const std::string_view payload = bytes.substr(kHeaderBytes);
  IRP_CHECK(fnv1a64(payload) == checksum,
            "oracle snapshot: checksum mismatch (corrupted image)");

  ByteReader r{payload, std::string(kContext)};
  OracleSnapshot snap;
  snap.num_ases = r.u32();

  const std::uint32_t num_rel = r.count(9);
  snap.relationships.reserve(num_rel);
  for (std::uint32_t i = 0; i < num_rel; ++i) {
    RelationshipEntry e;
    e.a = r.u32();
    e.b = r.u32();
    e.rel = r.u8();
    IRP_CHECK(e.rel <= 2, "oracle snapshot: invalid relationship label");
    snap.relationships.push_back(e);
  }

  const std::uint32_t num_groups = r.count(4);
  snap.sibling_groups.reserve(num_groups);
  for (std::uint32_t i = 0; i < num_groups; ++i)
    snap.sibling_groups.push_back(r.asns());

  const std::uint32_t num_hybrid = r.count(13);
  snap.hybrid_entries.reserve(num_hybrid);
  for (std::uint32_t i = 0; i < num_hybrid; ++i) {
    HybridRecord h;
    h.a = r.u32();
    h.b = r.u32();
    h.city = r.u32();
    h.rel = r.u8();
    IRP_CHECK(h.rel <= 3, "oracle snapshot: invalid hybrid relationship");
    snap.hybrid_entries.push_back(h);
  }
  const std::uint32_t num_partial = r.count(8);
  snap.partial_transit.reserve(num_partial);
  for (std::uint32_t i = 0; i < num_partial; ++i) {
    const Asn provider = r.u32();
    const Asn customer = r.u32();
    snap.partial_transit.emplace_back(provider, customer);
  }

  const std::uint32_t num_obs = r.count(9);
  snap.observations.reserve(num_obs);
  for (std::uint32_t i = 0; i < num_obs; ++i) {
    ObservationBlock block;
    block.prefix = r.prefix();
    const std::uint32_t num_pairs = r.count(8);
    block.pairs.reserve(num_pairs);
    for (std::uint32_t p = 0; p < num_pairs; ++p) {
      const Asn origin = r.u32();
      const Asn neighbor = r.u32();
      block.pairs.emplace_back(origin, neighbor);
    }
    snap.observations.push_back(std::move(block));
  }

  const std::uint32_t num_nodes = r.count(16);
  std::vector<PathTable::FlatNode> nodes;
  nodes.reserve(num_nodes);
  for (std::uint32_t i = 0; i < num_nodes; ++i) {
    PathTable::FlatNode n;
    n.head = r.u32();
    n.tail = r.u32();
    n.num_hops = r.u32();
    n.poison = r.u32();
    nodes.push_back(n);
  }
  const std::uint32_t num_poison = r.count(4);
  std::vector<std::vector<Asn>> poison_sets;
  poison_sets.reserve(num_poison);
  for (std::uint32_t i = 0; i < num_poison; ++i)
    poison_sets.push_back(r.asns());
  snap.paths = PathTable::from_flat(nodes, std::move(poison_sets));

  const std::uint32_t num_prefixes = r.count(13);
  snap.routes.reserve(num_prefixes);
  for (std::uint32_t i = 0; i < num_prefixes; ++i) {
    PrefixRoutes pr;
    pr.prefix = r.prefix();
    pr.origin = r.u32();
    const std::uint32_t num_entries = r.count(17);
    pr.entries.reserve(num_entries);
    for (std::uint32_t e = 0; e < num_entries; ++e) {
      RouteEntry entry;
      entry.asn = r.u32();
      entry.selected = r.u32();
      IRP_CHECK(entry.selected < snap.paths.num_paths(),
                "oracle snapshot: route references a missing path");
      entry.next_hop = r.u32();
      entry.self_originated = r.u8() != 0;
      const std::uint32_t num_alt = r.count(8);
      entry.alternates.reserve(num_alt);
      for (std::uint32_t a = 0; a < num_alt; ++a) {
        AlternateRoute alt;
        alt.path = r.u32();
        IRP_CHECK(alt.path < snap.paths.num_paths(),
                  "oracle snapshot: alternate references a missing path");
        alt.from_asn = r.u32();
        entry.alternates.push_back(alt);
      }
      IRP_CHECK(pr.entries.empty() || pr.entries.back().asn < entry.asn,
                "oracle snapshot: route entries not ascending by ASN");
      pr.entries.push_back(std::move(entry));
    }
    snap.routes.push_back(std::move(pr));
  }
  IRP_CHECK(r.remaining() == 0, "oracle snapshot: trailing bytes in payload");
  return snap;
}

void OracleSnapshot::save(const std::string& path) const {
  write_file(path, to_bytes());
}

OracleSnapshot OracleSnapshot::load(const std::string& path) {
  return from_bytes(read_file(path));
}

OracleSnapshot snapshot_study(const PassiveDataset& ds) {
  const ConvergedRib& rib = ds.rib;
  const std::size_t num_ases = rib.num_ases();

  OracleSnapshot snap;
  snap.num_ases = static_cast<std::uint32_t>(num_ases);

  // Aggregated relationships: links() iterates the ordered pair map, so the
  // dump is already deterministic and ascending.
  snap.relationships.reserve(ds.inferred.links().size());
  for (const auto& [pair, rel] : ds.inferred.links())
    snap.relationships.push_back(OracleSnapshot::RelationshipEntry{
        pair.first, pair.second, static_cast<std::uint8_t>(rel)});

  snap.sibling_groups = ds.siblings.groups();

  snap.hybrid_entries.reserve(ds.hybrid.entries().size());
  for (const HybridEntry& h : ds.hybrid.entries())
    snap.hybrid_entries.push_back(OracleSnapshot::HybridRecord{
        h.a, h.b, h.city, static_cast<std::uint8_t>(h.rel_of_b_from_a)});
  snap.partial_transit = ds.hybrid.partial_transit();

  for (const auto& [prefix, pairs] : ds.observations.export_sorted())
    snap.observations.push_back(OracleSnapshot::ObservationBlock{prefix, pairs});

  // Per-(AS, prefix) selected/alternate routes of the measurement epoch,
  // re-interned into the snapshot's own path table (hash-consing preserves
  // suffix sharing, so the table stays compact).
  snap.routes.reserve(rib.num_prefixes());
  const PathTable* source = nullptr;
  std::optional<PathTranslator> translate;
  for (std::size_t index = 0; index < rib.num_prefixes(); ++index) {
    if (&rib.paths(index) != source) {
      source = &rib.paths(index);
      translate.emplace(*source, snap.paths);
    }
    OracleSnapshot::PrefixRoutes pr;
    pr.prefix = rib.prefixes()[index];
    for (Asn asn = 1; asn <= static_cast<Asn>(num_ases); ++asn) {
      const std::optional<ConvergedRib::Selected> sel = rib.best(index, asn);
      if (!sel) continue;
      OracleSnapshot::RouteEntry entry;
      entry.asn = asn;
      entry.selected = (*translate)(sel->path);
      entry.next_hop = sel->next_hop;
      entry.self_originated = sel->self_originated;
      if (sel->self_originated) pr.origin = asn;
      const ConvergedRib::Alternates alts = rib.alternates(index, asn);
      entry.alternates.reserve(alts.size());
      for (std::size_t a = 0; a < alts.size(); ++a)
        entry.alternates.push_back(OracleSnapshot::AlternateRoute{
            (*translate)(alts.paths[a]), alts.from_asn[a]});
      pr.entries.push_back(std::move(entry));
    }
    snap.routes.push_back(std::move(pr));
  }
  return snap;
}

}  // namespace irp
