#include "channel/spatial_index.hpp"

#include <algorithm>
#include <stdexcept>

namespace aquamac {

SpatialReceiverIndex::SpatialReceiverIndex(double cell_size_m)
    : cell_size_m_{std::max(cell_size_m, 1.0)} {}

void SpatialReceiverIndex::bin(std::size_t ordinal, const CellKey& cell) {
  cells_[cell].push_back(ordinal);
  records_[ordinal].cell = cell;
  records_[ordinal].epoch = records_[ordinal].modem->position_epoch();
}

void SpatialReceiverIndex::unbin(std::size_t ordinal, const CellKey& cell) {
  auto it = cells_.find(cell);
  if (it == cells_.end()) return;
  std::vector<std::size_t>& bucket = it->second;
  // Order within a bucket is irrelevant (queries sort by ordinal), so
  // swap-erase keeps removal O(bucket).
  const auto pos = std::find(bucket.begin(), bucket.end(), ordinal);
  if (pos != bucket.end()) {
    *pos = bucket.back();
    bucket.pop_back();
  }
  if (bucket.empty()) cells_.erase(it);
}

void SpatialReceiverIndex::insert(AcousticModem& modem) {
  if (ordinals_.contains(&modem)) throw std::logic_error("modem indexed twice");
  const std::size_t ordinal = records_.size();
  ordinals_.emplace(&modem, ordinal);
  records_.push_back(Record{&modem, CellKey{}, 0});
  bin(ordinal, key_for(modem.position(), cell_size_m_));
}

void SpatialReceiverIndex::refresh(const AcousticModem& modem) {
  const auto it = ordinals_.find(&modem);
  if (it == ordinals_.end()) return;
  Record& record = records_[it->second];
  if (record.epoch == modem.position_epoch()) return;
  const CellKey cell = key_for(modem.position(), cell_size_m_);
  if (cell == record.cell) {
    // Moved within its cell: only the epoch stamp needs updating.
    record.epoch = modem.position_epoch();
    return;
  }
  unbin(it->second, record.cell);
  bin(it->second, cell);
  ++rebins_;
}

void SpatialReceiverIndex::candidates(const Vec3& center,
                                      std::vector<AcousticModem*>& out,
                                      std::vector<std::size_t>& scratch) const {
  out.clear();
  scratch.clear();
  for_each_bucket_around(cells_, key_for(center, cell_size_m_), [&](const auto& bucket) {
    scratch.insert(scratch.end(), bucket.begin(), bucket.end());
  });
  // Ordinal order == attach order: the order of a scan over every
  // attached modem, which the determinism contract requires.
  std::sort(scratch.begin(), scratch.end());
  out.reserve(scratch.size());
  for (const std::size_t ordinal : scratch) out.push_back(records_[ordinal].modem);
}

}  // namespace aquamac
