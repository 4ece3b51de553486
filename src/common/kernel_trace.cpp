#include "common/kernel_trace.hpp"

#include <chrono>
#include <mutex>
#include <utility>

#include "common/thread_pool.hpp"

namespace ndft {
namespace {

double now_ms() noexcept {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

// ---------------------------------------------------- thread-local routing
//
// tl_recorder is the sink TraceScope installed on this thread.
// tl_kernel_depth counts nested KernelTimer entries so only the outermost
// kernel emits. tl_region points at the innermost open TraceRegion; while
// one is open, kernel entries are suppressed and explicit work folds into
// it. Pool workers never see a recorder, so everything off the scope
// thread is a no-op by construction.

struct TraceRegion::State {
  TraceEvent event;
  double start_ms = 0.0;
  State* parent = nullptr;
};

namespace {

thread_local TraceRecorder* tl_recorder = nullptr;
thread_local unsigned tl_kernel_depth = 0;
thread_local TraceRegion::State* tl_region = nullptr;
thread_local std::string tl_stage;

}  // namespace

// -------------------------------------------------------------- KernelTrace

Flops KernelTrace::total_flops() const noexcept {
  Flops total = 0;
  for (const TraceEvent& e : events) total += e.flops;
  return total;
}

Bytes KernelTrace::total_bytes() const noexcept {
  Bytes total = 0;
  for (const TraceEvent& e : events) total += e.bytes;
  return total;
}

double KernelTrace::total_host_ms() const noexcept {
  double total = 0.0;
  for (const TraceEvent& e : events) total += e.host_ms;
  return total;
}

std::size_t KernelTrace::count_of(KernelClass cls) const noexcept {
  std::size_t count = 0;
  for (const TraceEvent& e : events) count += (e.cls == cls) ? 1 : 0;
  return count;
}

Flops KernelTrace::flops_of(KernelClass cls) const noexcept {
  Flops total = 0;
  for (const TraceEvent& e : events) {
    if (e.cls == cls) total += e.flops;
  }
  return total;
}

Bytes KernelTrace::bytes_of(KernelClass cls) const noexcept {
  Bytes total = 0;
  for (const TraceEvent& e : events) {
    if (e.cls == cls) total += e.bytes;
  }
  return total;
}

Json KernelTrace::to_json() const { return fields_to_json(*this); }

KernelTrace KernelTrace::from_json(const Json& json) {
  KernelTrace trace;
  fields_from_json(json, trace);
  return trace;
}

// ------------------------------------------------------------ TraceRecorder

struct TraceRecorder::Impl {
  std::mutex mutex;
  KernelTrace trace;
};

TraceRecorder::TraceRecorder() : impl_(std::make_unique<Impl>()) {}
TraceRecorder::~TraceRecorder() = default;

void TraceRecorder::record(TraceEvent event) {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  if (impl_->trace.events.size() >= kMaxEvents) {
    impl_->trace.truncated = true;
    return;
  }
  impl_->trace.events.push_back(std::move(event));
}

void TraceRecorder::set_system(std::size_t atoms, std::size_t basis_size,
                               std::size_t grid_points) {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  impl_->trace.atoms = atoms;
  impl_->trace.basis_size = basis_size;
  impl_->trace.grid_points = grid_points;
}

KernelTrace TraceRecorder::take() {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  KernelTrace out = std::move(impl_->trace);
  impl_->trace = KernelTrace{};
  out.pool_threads = ThreadPool::instance().threads();
  return out;
}

// --------------------------------------------------------------- TraceScope

bool trace_active() noexcept {
  return tl_recorder != nullptr && tl_kernel_depth == 0 &&
         tl_region == nullptr;
}

TraceScope::TraceScope(TraceRecorder& recorder) {
  NDFT_REQUIRE(tl_recorder == nullptr,
               "TraceScope must not nest on one thread");
  tl_recorder = &recorder;
  tl_stage.clear();
}

TraceScope::~TraceScope() {
  tl_recorder = nullptr;
  tl_stage.clear();
}

// --------------------------------------------------------------- TraceStage

TraceStage::TraceStage(std::string stage) {
  if (tl_recorder == nullptr) return;
  active_ = true;
  previous_ = std::move(tl_stage);
  tl_stage = std::move(stage);
}

TraceStage::~TraceStage() {
  if (active_) tl_stage = std::move(previous_);
}

// -------------------------------------------------------------- TraceRegion

TraceRegion::TraceRegion(KernelClass cls, std::string name) {
  if (tl_recorder == nullptr) return;
  state_ = new State();
  state_->event.cls = cls;
  state_->event.name = std::move(name);
  state_->event.stage = tl_stage;
  state_->start_ms = now_ms();
  state_->parent = tl_region;
  tl_region = state_;
}

TraceRegion::~TraceRegion() {
  if (state_ == nullptr) return;
  state_->event.host_ms = now_ms() - state_->start_ms;
  tl_region = state_->parent;
  if (tl_region != nullptr) {
    // Nested region: fold into the parent instead of emitting.
    tl_region->event.flops += state_->event.flops;
    tl_region->event.bytes += state_->event.bytes;
  } else if (tl_recorder != nullptr) {
    tl_recorder->record(std::move(state_->event));
  }
  delete state_;
}

void TraceRegion::add_work(Flops flops, Bytes bytes) noexcept {
  if (state_ == nullptr) return;
  state_->event.flops += flops;
  state_->event.bytes += bytes;
}

void TraceRegion::set_dims(std::uint64_t a, std::uint64_t b,
                           std::uint64_t c) noexcept {
  if (state_ == nullptr) return;
  state_->event.dims[0] = a;
  state_->event.dims[1] = b;
  state_->event.dims[2] = c;
}

void TraceRegion::set_io(Bytes input_bytes, Bytes output_bytes) noexcept {
  if (state_ == nullptr) return;
  state_->event.input_bytes = input_bytes;
  state_->event.output_bytes = output_bytes;
}

void trace_set_system(std::size_t atoms, std::size_t basis_size,
                      std::size_t grid_points) noexcept {
  if (tl_recorder != nullptr) {
    tl_recorder->set_system(atoms, basis_size, grid_points);
  }
}

// -------------------------------------------------------------- KernelTimer

KernelTimer::KernelTimer(KernelClass cls, const char* name) {
  ++tl_kernel_depth;
  if (tl_recorder == nullptr || tl_kernel_depth != 1 ||
      tl_region != nullptr) {
    return;  // untraced thread, nested kernel, or aggregated region
  }
  active_ = true;
  event_.cls = cls;
  event_.name = name;
  event_.stage = tl_stage;
  start_ms_ = now_ms();
}

KernelTimer::~KernelTimer() {
  --tl_kernel_depth;
  if (!active_) return;
  event_.host_ms = now_ms() - start_ms_;
  if (tl_recorder != nullptr) {
    tl_recorder->record(std::move(event_));
  }
}

void KernelTimer::set_work(Flops flops, Bytes bytes) noexcept {
  if (!active_) return;
  event_.flops = flops;
  event_.bytes = bytes;
}

void KernelTimer::set_dims(std::uint64_t a, std::uint64_t b,
                           std::uint64_t c) noexcept {
  if (!active_) return;
  event_.dims[0] = a;
  event_.dims[1] = b;
  event_.dims[2] = c;
}

void KernelTimer::set_io(Bytes input_bytes, Bytes output_bytes) noexcept {
  if (!active_) return;
  event_.input_bytes = input_bytes;
  event_.output_bytes = output_bytes;
}

}  // namespace ndft
