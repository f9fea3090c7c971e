#include "dataplane/traceroute.hpp"

#include <limits>

#include "geo/world.hpp"
#include "util/check.hpp"

namespace irp {

TracerouteSim::TracerouteSim(const Topology* topo, const ConvergedRib* rib)
    : topo_(topo), rib_(rib) {
  IRP_CHECK(topo_ != nullptr && rib_ != nullptr,
            "traceroute sim requires topology and converged RIB");
}

TracerouteHop TracerouteSim::ingress_hop(Asn asn, const Link& via_link) const {
  const AsNode& node = topo_->as_node(asn);
  // The border router answering the probe sits at the PoP closest to the
  // interconnection city (hot-potato ingress).
  const PointOfPresence* best = &node.pops.front();
  // Note: distances need the world; approximate with city equality first.
  for (const auto& pop : node.pops) {
    if (pop.city == via_link.city) {
      best = &pop;
      break;
    }
  }
  TracerouteHop hop;
  // Interface index derived from the link id keeps addresses distinct and
  // deterministic per adjacency.
  hop.address = best->router_prefix.address_at(1 + via_link.id % 250);
  hop.truth_asn = asn;
  hop.truth_city = best->city;
  return hop;
}

std::optional<Traceroute> TracerouteSim::run(
    Asn src_asn, Ipv4Addr src_address, Ipv4Addr dst_address,
    const Ipv4Prefix& dst_prefix) const {
  IRP_CHECK(dst_prefix.contains(dst_address),
            "destination address not in destination prefix");

  Traceroute tr;
  tr.src_asn = src_asn;
  tr.src_address = src_address;
  tr.dst_address = dst_address;
  tr.dst_prefix = dst_prefix;
  const std::optional<std::size_t> index = rib_->find(dst_prefix);
  if (!index) return std::nullopt;  // Never announced: no route anywhere.

  Asn current = src_asn;
  std::vector<bool> visited(topo_->num_ases() + 1, false);
  visited[current] = true;
  // Destination-based forwarding cannot loop in a converged BGP state, but
  // path-dependent policies (e.g. domestic preference) can oscillate and
  // leave transiently inconsistent state — real traceroutes observe such
  // loops too. The traceroute simply fails to reach the destination.
  for (int ttl = 0; ttl < 64; ++ttl) {
    const std::optional<ConvergedRib::Selected> sel =
        rib_->best(*index, current);
    if (!sel) {
      if (current == src_asn) return std::nullopt;  // No route at the probe.
      return tr;  // Path died mid-way: unreached traceroute.
    }
    if (sel->self_originated) {
      // Arrived at the origin AS: the destination host answers.
      tr.hops.push_back(TracerouteHop{dst_address, current, 0});
      tr.reached = true;
      return tr;
    }
    const Link& link = topo_->link(sel->via_link);
    const Asn next = sel->next_hop;
    if (visited[next]) return tr;  // Forwarding loop: probe expires.
    visited[next] = true;
    tr.hops.push_back(ingress_hop(next, link));
    current = next;
  }
  return tr;  // TTL exhausted.
}

std::vector<Asn> TracerouteSim::forwarding_path(
    Asn src_asn, const Ipv4Prefix& dst_prefix) const {
  const std::optional<std::size_t> index = rib_->find(dst_prefix);
  if (!index) return {};
  std::vector<Asn> path;
  std::vector<bool> visited(topo_->num_ases() + 1, false);
  Asn current = src_asn;
  for (int ttl = 0; ttl < 64; ++ttl) {
    const std::optional<ConvergedRib::Selected> sel =
        rib_->best(*index, current);
    if (!sel) return {};
    if (visited[current]) return {};  // Forwarding loop: unusable path.
    visited[current] = true;
    path.push_back(current);
    if (sel->self_originated) return path;
    current = sel->next_hop;
  }
  return {};
}

}  // namespace irp
