#include "rckm/klc_monitor.h"

#include <algorithm>

namespace dilu::rckm {

void
KlcMonitor::Record(int bucket, TimeUs klc)
{
  if (klc <= 0) return;
  current_ = klc;
  current_bucket_ = bucket;
  auto it = min_by_bucket_.find(bucket);
  if (it == min_by_bucket_.end()) {
    it = min_by_bucket_.emplace(bucket, klc).first;
  } else {
    it->second = std::min(it->second, klc);
  }
  const TimeUs t_min = it->second;
  inflation_ =
      static_cast<double>(current_ - t_min) / static_cast<double>(t_min);
}

TimeUs
KlcMonitor::minimum() const
{
  auto it = min_by_bucket_.find(current_bucket_);
  return it == min_by_bucket_.end() ? 0 : it->second;
}

void
KlcMonitor::Reset()
{
  min_by_bucket_.clear();
  current_ = 0;
  current_bucket_ = -1;
  inflation_ = 0.0;
}

}  // namespace dilu::rckm
