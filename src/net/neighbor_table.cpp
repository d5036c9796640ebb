#include "net/neighbor_table.hpp"

#include <algorithm>

#include "sim/checkpoint.hpp"

namespace aquamac {

void NeighborTable::update(NodeId neighbor, Duration delay, Time now) {
  one_hop_[neighbor] = Entry{delay, now};
}

std::optional<Duration> NeighborTable::delay_to(NodeId neighbor) const {
  const auto it = one_hop_.find(neighbor);
  if (it == one_hop_.end()) return std::nullopt;
  return it->second.delay;
}

std::optional<Duration> NeighborTable::max_known_delay() const {
  if (one_hop_.empty()) return std::nullopt;
  Duration max{};
  for (const auto& [id, entry] : one_hop_) max = std::max(max, entry.delay);
  return max;
}

std::vector<NodeId> NeighborTable::neighbor_ids() const {
  std::vector<NodeId> ids;
  ids.reserve(one_hop_.size());
  // std::map iteration: already ascending NodeId.
  for (const auto& [id, entry] : one_hop_) ids.push_back(id);
  return ids;
}

std::optional<Time> NeighborTable::last_updated(NodeId neighbor) const {
  const auto it = one_hop_.find(neighbor);
  if (it == one_hop_.end()) return std::nullopt;
  return it->second.updated;
}

std::vector<NodeId> NeighborTable::evict_older_than(Duration age, Time now) {
  const Time horizon = now - age;
  std::vector<NodeId> evicted;
  for (const auto& [id, entry] : one_hop_) {
    if (entry.updated < horizon) evicted.push_back(id);
  }
  for (const NodeId id : evicted) one_hop_.erase(id);
  for (auto& [via, fars] : two_hop_) {
    std::erase_if(fars, [horizon](const auto& kv) { return kv.second.updated < horizon; });
  }
  std::erase_if(two_hop_, [](const auto& kv) { return kv.second.empty(); });
  // Already ascending: collected in std::map iteration order.
  return evicted;
}

void NeighborTable::expire_older_than(Time horizon) {
  std::erase_if(one_hop_, [horizon](const auto& kv) { return kv.second.updated < horizon; });
  for (auto& [via, fars] : two_hop_) {
    std::erase_if(fars, [horizon](const auto& kv) { return kv.second.updated < horizon; });
  }
  std::erase_if(two_hop_, [](const auto& kv) { return kv.second.empty(); });
}

void NeighborTable::update_two_hop(NodeId via, NodeId far, Duration delay, Time now) {
  two_hop_[via][far] = Entry{delay, now};
}

std::optional<Duration> NeighborTable::two_hop_delay(NodeId via, NodeId far) const {
  const auto it = two_hop_.find(via);
  if (it == two_hop_.end()) return std::nullopt;
  const auto jt = it->second.find(far);
  if (jt == it->second.end()) return std::nullopt;
  return jt->second.delay;
}

std::size_t NeighborTable::two_hop_size() const {
  std::size_t n = 0;
  for (const auto& [via, fars] : two_hop_) n += fars.size();
  return n;
}

void NeighborTable::Entry::visit_state(StateArchive& ar) { ar(delay, updated); }

void NeighborTable::visit_state(StateArchive& ar) { ar(one_hop_, two_hop_); }

}  // namespace aquamac
