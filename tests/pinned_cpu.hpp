// Test helper: pins the calling thread to one CPU of its affinity mask for
// the object's lifetime and restores the mask afterwards, so code that sizes
// itself with paldia::usable_cpus() runs at a width of 1.
#pragma once

#include <sched.h>

namespace paldia {

class PinnedToOneCpu {
 public:
  PinnedToOneCpu() {
    CPU_ZERO(&saved_);
    if (sched_getaffinity(0, sizeof(saved_), &saved_) != 0) return;
    int cpu = 0;
    while (cpu < CPU_SETSIZE && !CPU_ISSET(cpu, &saved_)) ++cpu;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    pinned_ = sched_setaffinity(0, sizeof(one), &one) == 0;
  }
  ~PinnedToOneCpu() {
    if (pinned_) sched_setaffinity(0, sizeof(saved_), &saved_);
  }

  PinnedToOneCpu(const PinnedToOneCpu&) = delete;
  PinnedToOneCpu& operator=(const PinnedToOneCpu&) = delete;

  /// Whether the pin took; the mask is untouched when it did not.
  bool ok() const { return pinned_; }

 private:
  cpu_set_t saved_;
  bool pinned_ = false;
};

}  // namespace paldia
