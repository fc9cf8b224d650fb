#include "src/cluster/request_pool.hpp"

#include <algorithm>

namespace paldia::cluster {

void RequestRing::push_back(const Request& request) {
  if (count_ == buffer_.size()) grow(count_ + 1);
  buffer_[(head_ + count_) & mask()] = request;
  ++count_;
}

std::size_t RequestRing::arrived_before(TimeMs now) const {
  std::size_t lo = 0;
  std::size_t hi = count_;
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (at(mid).arrival_ms <= now) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

void RequestRing::pop_front_into(std::size_t n, RequestBlock& out) {
  const std::size_t capacity = buffer_.size();
  const std::size_t first = std::min(n, capacity - head_);
  out.append(buffer_.data() + head_, first);
  out.append(buffer_.data(), n - first);
  head_ = (head_ + n) & mask();
  count_ -= n;
  if (count_ == 0) head_ = 0;
}

void RequestRing::append_and_sort(const Request* data, std::size_t n) {
  if (n == 0) return;
  linearize();
  if (count_ + n > buffer_.size()) grow(count_ + n);
  std::copy(data, data + n, buffer_.begin() + static_cast<std::ptrdiff_t>(count_));
  count_ += n;
  // Stable: requests sharing an arrival timestamp must keep their requeue
  // order, or pooled and bypass runs diverge on ties (the bit-identity
  // contract Runner.PooledVsBypassBitIdentical checks).
  std::stable_sort(
      buffer_.begin(), buffer_.begin() + static_cast<std::ptrdiff_t>(count_),
      [](const Request& a, const Request& b) { return a.arrival_ms < b.arrival_ms; });
}

void RequestRing::grow(std::size_t min_capacity) {
  std::size_t capacity = buffer_.empty() ? 16 : buffer_.size() * 2;
  while (capacity < min_capacity) capacity *= 2;
  std::vector<Request> next(capacity);
  for (std::size_t i = 0; i < count_; ++i) next[i] = at(i);
  buffer_ = std::move(next);
  head_ = 0;
}

void RequestRing::linearize() {
  if (head_ == 0) return;
  std::rotate(buffer_.begin(), buffer_.begin() + static_cast<std::ptrdiff_t>(head_),
              buffer_.end());
  head_ = 0;
}

}  // namespace paldia::cluster
