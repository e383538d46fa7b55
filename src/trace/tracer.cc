#include "trace/tracer.h"

#include <cassert>

namespace emjoin::trace {

SpanId Tracer::OpenSpan(extmem::Device* dev, const char* name) {
  assert(dev != nullptr);
  const SpanId id = static_cast<SpanId>(spans_.size());

  SpanRecord rec;
  rec.name = name;
  if (!stack_.empty()) {
    rec.parent = stack_.back().id;
    rec.depth = spans_[rec.parent].depth + 1;
  } else {
    // A root span anchors its device's cumulative-I/O timeline at the
    // current global clock, so successive root spans (possibly on fresh
    // devices) occupy successive timeline intervals.
    clock_base_[dev] = clock_ - dev->stats().total();
  }
  rec.open_clock = clock_base_[dev] + dev->stats().total();
  spans_.push_back(std::move(rec));

  Frame frame;
  frame.id = id;
  frame.dev = dev;
  frame.open_io = dev->stats();
  frame.open_tags = dev->per_tag();
  if (const extmem::FaultInjector* inj = dev->fault_injector()) {
    frame.open_faults = inj->stats();
    frame.has_injector = true;
  }
  stack_.push_back(std::move(frame));
  dev->gauge().PushWatermark();
  return id;
}

void Tracer::CloseSpan(SpanId id) {
  assert(!stack_.empty());
  assert(stack_.back().id == id && "spans must close in LIFO order");
  const Frame& frame = stack_.back();
  extmem::Device* dev = frame.dev;
  SpanRecord& rec = spans_[id];

  rec.inclusive = dev->stats() - frame.open_io;
  rec.peak_resident = dev->gauge().PopWatermark();
  rec.by_tag = extmem::TagDelta(dev->per_tag(), frame.open_tags);
  // An injector detached (or swapped in) mid-span yields no meaningful
  // delta, so fault attribution requires the same injector view at both
  // ends.
  if (frame.has_injector) {
    if (const extmem::FaultInjector* inj = dev->fault_injector()) {
      rec.faults = inj->stats() - frame.open_faults;
      rec.has_faults = true;
    }
  }
  rec.closed = true;
  stack_.pop_back();

  if (rec.parent != kNoSpan) {
    spans_[rec.parent].child_sum += rec.inclusive;
  }
  const std::uint64_t end_clock = rec.open_clock + rec.inclusive.total();
  if (end_clock > clock_) clock_ = end_clock;
}

void Tracer::Absorb(const Tracer& other, const char* root_name) {
  const SpanId base = static_cast<SpanId>(spans_.size());

  SpanRecord root;
  root.name = root_name;
  root.parent = kNoSpan;
  root.depth = 0;
  root.open_clock = clock_;
  root.closed = true;
  for (const SpanRecord& s : other.spans_) {
    if (s.parent != kNoSpan) continue;
    root.inclusive += s.inclusive;
    root.child_sum += s.inclusive;
    if (s.peak_resident > root.peak_resident) {
      root.peak_resident = s.peak_resident;
    }
    if (s.has_faults) {
      root.faults = root.faults + s.faults;
      root.has_faults = true;
    }
    for (const auto& [tag, io] : s.by_tag) {
      const auto it = root.by_tag.find(tag);
      if (it != root.by_tag.end()) {
        it->second += io;
      } else {
        root.by_tag.emplace(tag, io);
      }
    }
  }
  const std::uint64_t subtree_ios = root.inclusive.total();
  spans_.push_back(std::move(root));

  // Copies keep their relative order, so the shifted ids stay in open
  // order and children still have larger ids than their parents.
  for (const SpanRecord& s : other.spans_) {
    SpanRecord copy = s;
    copy.parent = s.parent == kNoSpan ? base : base + 1 + s.parent;
    copy.depth = s.depth + 1;
    copy.open_clock = clock_ + s.open_clock;
    spans_.push_back(std::move(copy));
  }

  for (const auto& [name, delta] : other.totals_) {
    const auto it = totals_.find(name);
    if (it != totals_.end()) {
      it->second += delta;
    } else {
      totals_.emplace(name, delta);
    }
  }
  clock_ += subtree_ios;
}

void Tracer::AddCount(std::string_view name, std::uint64_t delta) {
  if (!stack_.empty()) {
    auto& counters = spans_[stack_.back().id].counters;
    const auto it = counters.find(name);
    if (it != counters.end()) {
      it->second += delta;
    } else {
      counters.emplace(std::string(name), delta);
    }
  }
  const auto it = totals_.find(name);
  if (it != totals_.end()) {
    it->second += delta;
  } else {
    totals_.emplace(std::string(name), delta);
  }
}

void Tracer::ExpectIos(SpanId id, long double ios) {
  assert(id < spans_.size());
  spans_[id].expect_ios = ios;
}

}  // namespace emjoin::trace
