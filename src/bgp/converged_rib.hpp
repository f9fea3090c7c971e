// The frozen result of a BGP convergence: for every announced prefix and
// every AS, the selected route and the other Adj-RIB-In routes, stored as
// flat columns instead of a live engine's per-AS objects.
//
// Everything downstream of a convergence — traceroutes, route-collector
// feeds, the looking-glass check of §4.3, RouteOracle snapshots — reads only
// this: which route an AS selected (path, link, next hop), whether it
// originates the prefix, and which alternates it holds. None of it needs
// route age, local-pref, export state, or the activation queue, which is
// where a live BgpEngine spends its memory.
//
// Layout (see DESIGN.md §7 "Converged RIB"): the RIB is a sequence of
// shards, each covering a contiguous run of prefixes frozen from one engine.
// Per (prefix, AS) slot a shard holds four columns — selected PathId, via
// link, next hop, flags — plus a CSR offset into two alternate columns
// (PathId, from ASN) in Adj-RIB-In order, without the selected route. Path
// ids index the shard's own PathTable, moved out of its engine. That is
// ~21 B per slot on generated topologies, against several hundred for the
// engine that produced it.
//
// A RIB is read-only and safe to share across threads.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "bgp/path_table.hpp"
#include "bgp/route.hpp"
#include "net/ipv4.hpp"

namespace irp {

class BgpEngine;

class ConvergedRib {
 public:
  /// The route one AS selected for one prefix.
  struct Selected {
    PathId path = kEmptyPathId;  ///< In paths(index); excludes the AS itself.
    LinkId via_link = kInvalidLink;  ///< kInvalidLink when self-originated.
    Asn next_hop = 0;                ///< 0 when self-originated.
    bool self_originated = false;
  };

  /// The non-selected Adj-RIB-In routes of one AS for one prefix, as two
  /// parallel columns in Adj-RIB-In order.
  struct Alternates {
    std::span<const PathId> paths;  ///< In paths(index).
    std::span<const Asn> from_asn;
    std::size_t size() const { return paths.size(); }
  };

  ConvergedRib() = default;
  ConvergedRib(ConvergedRib&&) = default;
  ConvergedRib& operator=(ConvergedRib&&) = default;
  ConvergedRib(const ConvergedRib&) = delete;
  ConvergedRib& operator=(const ConvergedRib&) = delete;

  /// Joins RIBs over the same topology into one, keeping `parts` order.
  /// Shards are moved, not copied. A prefix may appear in only one part.
  static ConvergedRib concat(std::vector<ConvergedRib> parts);

  std::size_t num_ases() const { return num_ases_; }
  std::size_t num_prefixes() const { return prefixes_.size(); }
  /// Prefixes in announcement order; a prefix's index is its position here.
  const std::vector<Ipv4Prefix>& prefixes() const { return prefixes_; }

  /// Index of `prefix`; nullopt when it was never announced.
  std::optional<std::size_t> find(const Ipv4Prefix& prefix) const;

  /// The route `asn` selected for prefix `index`; nullopt if it has none.
  std::optional<Selected> best(std::size_t index, Asn asn) const {
    const Locator at = locate(index, asn);
    const std::uint8_t flags = at.shard->flags[at.slot];
    if ((flags & kHasRoute) == 0) return std::nullopt;
    return Selected{at.shard->path[at.slot], at.shard->via_link[at.slot],
                    at.shard->next_hop[at.slot],
                    (flags & kSelfOriginated) != 0};
  }

  /// The other Adj-RIB-In routes of `asn` for prefix `index`.
  Alternates alternates(std::size_t index, Asn asn) const;

  /// True if `asn` holds a route for prefix `index` learned directly from
  /// `neighbor` (selected or not) — what a looking glass at `asn` shows.
  bool has_route_from(std::size_t index, Asn asn, Asn neighbor) const;

  /// The path table the PathIds of prefix `index` refer to.
  const PathTable& paths(std::size_t index) const {
    return *shards_[shard_of_[index]].paths;
  }

  /// Best routes of the given collector peers over all prefixes, peer
  /// prepended — the same dump BgpEngine::feed() gives for the engine(s)
  /// this RIB was frozen from.
  std::vector<FeedEntry> feed(std::span<const Asn> peers) const;

  /// Heap bytes of the per-slot and alternate columns (path tables and the
  /// prefix index excluded).
  std::size_t column_bytes() const;

 private:
  friend class BgpEngine;  // BgpEngine::freeze() builds one-shard RIBs.

  static constexpr std::uint8_t kHasRoute = 1;
  static constexpr std::uint8_t kSelfOriginated = 2;
  /// The selected route is one of the Adj-RIB-In routes (always, once the
  /// engine converged); lets has_route_from() count it without a column.
  static constexpr std::uint8_t kSelectedInRib = 4;

  struct Shard {
    /// Owned when the engine was consumed by freeze(); null when the RIB
    /// borrows a live engine's table.
    std::unique_ptr<PathTable> owned_paths;
    const PathTable* paths = nullptr;
    std::size_t first_prefix = 0;  ///< Global index of the shard's first prefix.
    // One entry per (local prefix, AS) slot: slot = local * num_ases + asn - 1.
    std::vector<PathId> path;
    std::vector<LinkId> via_link;
    std::vector<Asn> next_hop;
    std::vector<std::uint8_t> flags;
    /// CSR offsets: slot s owns alternates [alt_begin[s], alt_begin[s + 1]).
    std::vector<std::uint32_t> alt_begin;
    std::vector<PathId> alt_path;
    std::vector<Asn> alt_from;
  };

  struct Locator {
    const Shard* shard;
    std::size_t slot;
  };

  Locator locate(std::size_t index, Asn asn) const {
    const Shard& shard = shards_[shard_of_[index]];
    return {&shard, (index - shard.first_prefix) * num_ases_ + (asn - 1)};
  }

  /// Appends `shard`, whose prefixes are `prefixes`, after the existing ones.
  void add_shard(Shard shard, std::span<const Ipv4Prefix> prefixes);

  std::size_t num_ases_ = 0;
  std::vector<Ipv4Prefix> prefixes_;
  std::vector<std::uint32_t> shard_of_;  ///< Per prefix index.
  std::unordered_map<Ipv4Prefix, std::uint32_t, Ipv4PrefixHash> index_;
  std::vector<Shard> shards_;
};

}  // namespace irp
