#include "sim/simulator.hpp"

#include <algorithm>
#include <utility>

namespace agentloc::sim {

namespace {

// A refill moves at least this many entries (or all of the far tier, when
// it holds fewer). A heap this size (384 KiB of entries) stays in cache, so
// a pending set no larger than that gains nothing from the far tier and is
// simply one heap.
constexpr std::size_t kMinRefill = std::size_t{1} << 14;

// The near tier is a 4-ary min-heap: half the depth of a binary one, with a
// node's four children in adjacent cache lines, which is what a pop pays
// for once the heap outgrows L1.
template <class E>
void sift_up(E* heap, std::size_t i) noexcept {
  const E moving = heap[i];
  while (i > 0) {
    const std::size_t parent = (i - 1) / 4;
    if (!(moving < heap[parent])) break;
    heap[i] = heap[parent];
    i = parent;
  }
  heap[i] = moving;
}

// Put `moving` into the hole at `i` of the heap [heap, heap + n).
template <class E>
void sift_down(E* heap, std::size_t n, std::size_t i, const E moving) noexcept {
  for (;;) {
    const std::size_t first = 4 * i + 1;
    if (first >= n) break;
    const std::size_t last = std::min(first + 4, n);
    std::size_t best = first;
    for (std::size_t c = first + 1; c < last; ++c) {
      if (heap[c] < heap[best]) best = c;
    }
    if (!(heap[best] < moving)) break;
    heap[i] = heap[best];
    i = best;
  }
  heap[i] = moving;
}

template <class E>
void make_heap(E* heap, std::size_t n) noexcept {
  if (n < 2) return;
  for (std::size_t i = (n - 2) / 4 + 1; i-- > 0;) {
    sift_down(heap, n, i, heap[i]);
  }
}

}  // namespace

EventId Simulator::schedule_at(SimTime when, Handler handler) {
  if (when < now_) when = now_;

  std::uint32_t slot;
  if (free_head_ != kNoFreeSlot) {
    slot = free_head_;
    free_head_ = records_[slot].next_free;
  } else {
    slot = static_cast<std::uint32_t>(records_.size());
    records_.emplace_back();
  }
  Record& record = records_[slot];
  record.handler = std::move(handler);
  record.armed = true;

  entries_.push_back(Entry{when, next_seq_++, slot, record.generation});
  if (when < boundary_) {
    // Far entries are unordered: the first one moves to the back to make
    // room at the end of the near heap.
    std::swap(entries_[near_size_], entries_.back());
    sift_up(entries_.data(), near_size_++);
  } else if (far_latest_ < when) {
    far_latest_ = when;
  }
  ++live_;
  return make_id(slot, record.generation);
}

EventId Simulator::schedule_after(SimTime delay, Handler handler) {
  return schedule_at(now_ + delay, std::move(handler));
}

bool Simulator::cancel(EventId id) {
  const auto slot = static_cast<std::uint32_t>(id);
  const auto generation = static_cast<std::uint32_t>(id >> 32);
  if (slot >= records_.size()) return false;
  Record& record = records_[slot];
  if (!record.armed || record.generation != generation) return false;
  record.handler.reset();  // release captured resources immediately
  release_slot(slot, record);
  --live_;
  ++stale_in_heap_;
  maybe_compact();
  return true;
}

void Simulator::maybe_compact() {
  if (entries_.size() < 64 || stale_in_heap_ * 2 <= entries_.size()) return;
  const auto stale = [this](const Entry& entry) {
    const Record& record = records_[entry.slot];
    return !record.armed || record.generation != entry.generation;
  };
  const auto kept_near = std::remove_if(entries_.begin(), near_end(), stale);
  const auto kept_far = std::remove_if(near_end(), entries_.end(), stale);
  entries_.erase(std::move(near_end(), kept_far, kept_near), entries_.end());
  near_size_ = static_cast<std::size_t>(kept_near - entries_.begin());
  make_heap(entries_.data(), near_size_);
  stale_in_heap_ = 0;
}

void Simulator::release_slot(std::uint32_t slot, Record& record) noexcept {
  record.armed = false;
  // Bumping the generation orphans the queued entry (lazily discarded) and
  // every EventId handed out for this occupancy. Skip 0 on wrap so a live
  // id can never equal kInvalidEvent.
  if (++record.generation == 0) record.generation = 1;
  record.next_free = free_head_;
  free_head_ = slot;
}

void Simulator::drop_stale_top() {
  for (;;) {
    if (near_size_ == 0) {
      if (entries_.empty()) return;
      refill();
    }
    const Entry& top = entries_.front();
    const Record& record = records_[top.slot];
    if (record.armed && record.generation == top.generation) return;
    pop_top();
    --stale_in_heap_;
  }
}

void Simulator::refill() {
  // The chunk scales with the far tier, so each far entry takes part in a
  // bounded number of selections before it moves, and the near heap holds
  // a fixed share of the pending set rather than all of it.
  const std::size_t far = entries_.size();
  const std::size_t chunk = std::max(kMinRefill, far / 16);
  if (far <= chunk) {
    // Take everything. Every later event due at or after the latest one
    // taken carries a larger seq, so it belongs in the far tier.
    boundary_ = far_latest_;
    near_size_ = far;
  } else {
    // Select the chunk earliest entries into the front; the earliest entry
    // left behind is the boundary.
    const auto split = entries_.begin() + static_cast<std::ptrdiff_t>(chunk);
    std::nth_element(entries_.begin(), split, entries_.end());
    boundary_ = split->when;
    near_size_ = chunk;
  }
  make_heap(entries_.data(), near_size_);
}

void Simulator::pop_top() {
  --near_size_;
  Entry* heap = entries_.data();
  sift_down(heap, near_size_, 0, heap[near_size_]);
  // Close the gap with the last far entry (or drop the top itself when the
  // far tier is empty).
  entries_[near_size_] = entries_.back();
  entries_.pop_back();
}

bool Simulator::step() {
  drop_stale_top();
  if (near_size_ == 0) return false;
  execute_top();
  return true;
}

SimTime Simulator::next_event_time() {
  drop_stale_top();
  return near_size_ == 0 ? SimTime::infinity() : entries_.front().when;
}

void Simulator::execute_top() {
  const Entry top = entries_.front();
  pop_top();
  if (near_size_ != 0) __builtin_prefetch(&records_[entries_.front().slot]);

  Record& record = records_[top.slot];
  // Move the handler out before running it: the handler may schedule new
  // events, which can reuse this very slot or grow the pool.
  Handler handler = std::move(record.handler);
  release_slot(top.slot, record);
  --live_;

  now_ = top.when;
  ++executed_;
  handler();
}

std::size_t Simulator::run_until(SimTime deadline) {
  std::size_t count = 0;
  stop_requested_ = false;
  for (;;) {
    // Skip cancelled entries without advancing time.
    drop_stale_top();
    if (near_size_ == 0 || entries_.front().when > deadline ||
        stop_requested_) {
      // Advance the clock to the deadline so back-to-back run_until calls
      // observe monotone time even across idle stretches.
      if (deadline != SimTime::infinity() && deadline > now_ &&
          !stop_requested_) {
        now_ = deadline;
      }
      return count;
    }
    execute_top();  // top is live: drop_stale_top just ran
    ++count;
  }
}

void Simulator::reserve(std::size_t events) {
  records_.reserve(events);
  entries_.reserve(events);
}

std::size_t Simulator::resident_bytes() const noexcept {
  return records_.capacity() * sizeof(Record) +
         entries_.capacity() * sizeof(Entry);
}

}  // namespace agentloc::sim
