#include "bgp/converged_rib.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace irp {

ConvergedRib ConvergedRib::concat(std::vector<ConvergedRib> parts) {
  ConvergedRib out;
  std::size_t num_prefixes = 0;
  for (const ConvergedRib& part : parts) num_prefixes += part.num_prefixes();
  out.prefixes_.reserve(num_prefixes);
  out.shard_of_.reserve(num_prefixes);
  out.index_.reserve(num_prefixes);
  for (ConvergedRib& part : parts) {
    if (part.shards_.empty()) continue;
    IRP_CHECK(out.shards_.empty() || out.num_ases_ == part.num_ases_,
              "converged RIBs over different topologies");
    out.num_ases_ = part.num_ases_;
    for (Shard& shard : part.shards_) {
      const std::span<const Ipv4Prefix> prefixes{part.prefixes_};
      const std::size_t first = shard.first_prefix;
      const std::size_t count = shard.flags.size() / part.num_ases_;
      out.add_shard(std::move(shard), prefixes.subspan(first, count));
    }
  }
  return out;
}

void ConvergedRib::add_shard(Shard shard,
                             std::span<const Ipv4Prefix> prefixes) {
  const auto shard_index = static_cast<std::uint32_t>(shards_.size());
  shard.first_prefix = prefixes_.size();
  for (const Ipv4Prefix& prefix : prefixes) {
    const bool inserted =
        index_.emplace(prefix, static_cast<std::uint32_t>(prefixes_.size()))
            .second;
    IRP_CHECK(inserted, "prefix " + prefix.to_string() +
                            " appears in more than one converged RIB part");
    prefixes_.push_back(prefix);
    shard_of_.push_back(shard_index);
  }
  shards_.push_back(std::move(shard));
}

std::optional<std::size_t> ConvergedRib::find(const Ipv4Prefix& prefix) const {
  auto it = index_.find(prefix);
  if (it == index_.end()) return std::nullopt;
  return it->second;
}

ConvergedRib::Alternates ConvergedRib::alternates(std::size_t index,
                                                  Asn asn) const {
  const Locator at = locate(index, asn);
  const std::uint32_t begin = at.shard->alt_begin[at.slot];
  const std::uint32_t count = at.shard->alt_begin[at.slot + 1] - begin;
  return {std::span<const PathId>{at.shard->alt_path}.subspan(begin, count),
          std::span<const Asn>{at.shard->alt_from}.subspan(begin, count)};
}

bool ConvergedRib::has_route_from(std::size_t index, Asn asn,
                                  Asn neighbor) const {
  const Locator at = locate(index, asn);
  if ((at.shard->flags[at.slot] & kSelectedInRib) != 0 &&
      at.shard->next_hop[at.slot] == neighbor)
    return true;
  const std::span<const Asn> from = alternates(index, asn).from_asn;
  return std::find(from.begin(), from.end(), neighbor) != from.end();
}

std::vector<FeedEntry> ConvergedRib::feed(std::span<const Asn> peers) const {
  std::vector<FeedEntry> out;
  // Upper bound; prefixes unreachable from a peer are the exception.
  out.reserve(prefixes_.size() * peers.size());
  for (std::size_t index = 0; index < prefixes_.size(); ++index) {
    const PathTable& table = paths(index);
    for (Asn peer : peers) {
      const std::optional<Selected> sel = best(index, peer);
      if (!sel) continue;
      FeedEntry e;
      e.peer = peer;
      e.prefix = prefixes_[index];
      // "peer prepended", materialized straight into one exact-size vector.
      e.path.hops.reserve(table.num_hops(sel->path) + 1);
      e.path.hops.push_back(peer);
      table.append_hops(sel->path, e.path.hops);
      e.path.poison_set = table.poison_set(sel->path);
      out.push_back(std::move(e));
    }
  }
  return out;
}

std::size_t ConvergedRib::column_bytes() const {
  std::size_t bytes = 0;
  for (const Shard& s : shards_) {
    bytes += s.path.capacity() * sizeof(PathId) +
             s.via_link.capacity() * sizeof(LinkId) +
             s.next_hop.capacity() * sizeof(Asn) +
             s.flags.capacity() * sizeof(std::uint8_t) +
             s.alt_begin.capacity() * sizeof(std::uint32_t) +
             s.alt_path.capacity() * sizeof(PathId) +
             s.alt_from.capacity() * sizeof(Asn);
  }
  return bytes;
}

}  // namespace irp
