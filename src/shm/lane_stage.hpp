// Overflow stage in front of one nqe ring (DESIGN.md §8). Rings are fixed
// shared memory, so every push can fail; a producer that must not lose the
// nqe parks it here, in private memory. GuestLib, CoreEngine and ServiceLib
// all stage through this one type and its three rules:
//
//   * FIFO: a push reaches the ring only while nothing is staged;
//   * cap: at `cap` staged nqes a droppable op (droppable_on_overflow) is
//     refused; every other op keeps staging, since losing it strands a flow;
//   * in-order flush: flush() moves staged nqes to the ring oldest first and
//     says how many made it.
//
// The stage counts nothing: deferrals, refusals and the refused nqe's chunk
// are the caller's books.
#pragma once

#include <cstddef>
#include <deque>
#include <limits>
#include <utility>

#include "shm/nqe.hpp"
#include "shm/queue_set.hpp"

namespace nk::shm {

class lane_stage {
 public:
  static constexpr std::size_t no_cap = std::numeric_limits<std::size_t>::max();

  enum class outcome {
    pushed,   // on the ring now
    staged,   // parked; a later flush() delivers it in order
    refused,  // at the cap and droppable: the caller discards it
  };

  // `ring` must outlive the stage (both belong to one channel lane).
  explicit lane_stage(nqe_queue& ring, std::size_t cap = no_cap)
      : ring_{&ring}, cap_{cap} {}

  // Onto the ring if nothing is staged and it has room; never stages.
  [[nodiscard]] bool try_push(const nqe& e) {
    return staged_.empty() && ring_->push(e);
  }

  [[nodiscard]] outcome push(const nqe& e) {
    if (try_push(e)) return outcome::pushed;
    if (staged_.size() >= cap_ && droppable_on_overflow(e.op)) {
      return outcome::refused;
    }
    staged_.push_back(e);
    return outcome::staged;
  }

  std::size_t flush() {
    std::size_t n = 0;
    while (!staged_.empty() && ring_->push(staged_.front())) {
      staged_.pop_front();
      ++n;
    }
    return n;
  }

  [[nodiscard]] std::size_t size() const { return staged_.size(); }
  [[nodiscard]] bool empty() const { return staged_.empty(); }

  // Teardown: hands back every staged nqe, oldest first, leaving the stage
  // empty. The caller frees their chunks and counts the losses.
  [[nodiscard]] std::deque<nqe> take_all() {
    return std::exchange(staged_, {});
  }

 private:
  nqe_queue* ring_;
  std::size_t cap_;
  std::deque<nqe> staged_;
};

}  // namespace nk::shm
