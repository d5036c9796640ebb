#include "channel/propagation_cache.hpp"

namespace aquamac {

void PropagationCache::size_for(std::size_t node_count) {
  dim_ = node_count <= static_cast<std::size_t>(kMaxCachedId) + 1 ? node_count : 0;
  direct_.assign(dim_ * dim_, Entry{});
  if (cache_echo_) echo_.assign(dim_ * dim_, Entry{});
}

template <typename Compute>
PropagationModel::Path PropagationCache::lookup(std::vector<Entry>& table,
                                                const AcousticModem& from,
                                                const AcousticModem& to,
                                                const Compute& compute) {
  const std::size_t f = from.id();
  const std::size_t t = to.id();
  if (f >= dim_ || t >= dim_ || table.empty()) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    return compute();
  }
  Entry& entry = table[f * dim_ + t];
  if (entry.from_epoch == from.position_epoch() && entry.to_epoch == to.position_epoch()) {
    hits_.fetch_add(1, std::memory_order_relaxed);
    return entry.path;
  }
  misses_.fetch_add(1, std::memory_order_relaxed);
  entry.path = compute();
  entry.from_epoch = from.position_epoch();
  entry.to_epoch = to.position_epoch();
  return entry.path;
}

PropagationModel::Path PropagationCache::direct(const AcousticModem& from,
                                                const AcousticModem& to) {
  return lookup(direct_, from, to, [&] {
    return model_.compute(from.position(), to.position(), freq_khz_);
  });
}

PropagationModel::Path PropagationCache::surface_echo(const AcousticModem& from,
                                                      const AcousticModem& to,
                                                      double reflection_loss_db) {
  return lookup(echo_, from, to, [&] {
    return surface_echo_path(model_, from.position(), to.position(), freq_khz_,
                             reflection_loss_db);
  });
}

}  // namespace aquamac
