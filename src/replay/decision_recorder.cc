#include "src/replay/decision_recorder.h"

namespace mudi {
namespace replay {

namespace {
// Flush the in-memory buffer to disk once it exceeds this; large enough that
// record mode costs one write() per ~megabyte of trace, small enough to keep
// the recorder's resident footprint flat on multi-million-event runs.
constexpr size_t kFlushBytes = 1 << 20;
}  // namespace

SnapshotDevice MakeSnapshotDevice(const GpuDevice& dev) {
  SnapshotDevice out;
  out.device_id = dev.id();
  out.healthy = dev.healthy() ? 1 : 0;
  out.slowdown = dev.slowdown();
  out.has_inference = dev.has_inference() ? 1 : 0;
  if (dev.has_inference()) {
    const InferenceInstance& inf = dev.inference();
    out.service_index = static_cast<uint32_t>(inf.service_index);
    out.inf_batch = inf.batch_size;
    out.inf_fraction = inf.gpu_fraction;
    out.inf_mem_mb = inf.mem_required_mb;
  }
  out.trainings.reserve(dev.trainings().size());
  for (const TrainingInstance& t : dev.trainings()) {
    SnapshotTraining st;
    st.task_id = t.task_id;
    st.type_index = static_cast<uint32_t>(t.type_index);
    st.gpu_fraction = t.gpu_fraction;
    st.mem_required_mb = t.mem_required_mb;
    st.mem_swapped_mb = t.mem_swapped_mb;
    st.paused = t.paused ? 1 : 0;
    out.trainings.push_back(st);
  }
  return out;
}

DecisionScope::DecisionScope(DecisionRecorder* recorder, const std::vector<GpuDevice>& devices,
                             HookKind hook, double sim_ms, Snapshot snapshot, int device_id,
                             int task_id, int type_index)
    : recorder_(recorder) {
  if (recorder_ == nullptr) {
    return;
  }
  recorder_->BeginDecision(hook, sim_ms, device_id, task_id, type_index);
  if (snapshot == Snapshot::kAll) {
    for (const GpuDevice& dev : devices) {
      recorder_->AddSnapshotDevice(MakeSnapshotDevice(dev));
    }
  } else if (snapshot == Snapshot::kDevice) {
    recorder_->AddSnapshotDevice(MakeSnapshotDevice(devices[static_cast<size_t>(device_id)]));
  }
  timer_.Restart();
}

DecisionScope::~DecisionScope() {
  if (recorder_ != nullptr) {
    recorder_->EndDecision(timer_.ElapsedMs() * 1000.0);
  }
}

StatusOr<std::unique_ptr<DecisionRecorder>> DecisionRecorder::Create(const std::string& path,
                                                                     const TraceHeader& header) {
  std::unique_ptr<DecisionRecorder> recorder(new DecisionRecorder(path, header));
  if (!recorder->out_) {
    return InvalidArgumentError("decision recorder: cannot open '" + path + "' for writing");
  }
  return recorder;
}

DecisionRecorder::DecisionRecorder(const std::string& path, const TraceHeader& header)
    : path_(path), out_(path, std::ios::binary | std::ios::trunc), writer_(header) {}

DecisionRecorder::~DecisionRecorder() {
  if (!finished_) {
    Status ignored = Close();
    (void)ignored;
  }
}

void DecisionRecorder::FlushIfLarge() {
  if (writer_.buffered_bytes() >= kFlushBytes) {
    std::string chunk = writer_.TakeBuffer();
    out_.write(chunk.data(), static_cast<std::streamsize>(chunk.size()));
  }
}

void DecisionRecorder::RecordDeviceTable(const std::vector<DeviceTableEntry>& table) {
  writer_.AppendDeviceTable(table);
  FlushIfLarge();
}

void DecisionRecorder::RecordCurve(const TraceCurve& curve) {
  writer_.AppendCurve(curve);
  FlushIfLarge();
}

void DecisionRecorder::RecordRunSummary(const TraceRunSummary& summary) {
  writer_.AppendRunSummary(summary);
  FlushIfLarge();
}

uint64_t DecisionRecorder::BeginDecision(HookKind hook, double sim_ms, int device_id, int task_id,
                                         int type_index) {
  MUDI_CHECK(!decision_open_);
  decision_open_ = true;
  current_ = TraceDecision{};
  current_.seq = next_seq_++;
  current_.sim_ms = sim_ms;
  current_.hook = static_cast<uint8_t>(hook);
  current_.device_id = device_id;
  current_.task_id = task_id;
  current_.type_index = type_index;
  return current_.seq;
}

void DecisionRecorder::AddSnapshotDevice(const SnapshotDevice& dev) {
  MUDI_CHECK(decision_open_);
  current_.snapshot.push_back(dev);
}

void DecisionRecorder::AddCandidate(int device_id, double score) {
  MUDI_CHECK(decision_open_);
  current_.candidates.push_back(TraceCandidate{device_id, score});
}

void DecisionRecorder::SetChosenDevice(int device_id) {
  MUDI_CHECK(decision_open_);
  current_.chosen_device = device_id;
}

void DecisionRecorder::AddDisplaced(int task_id, uint32_t type_index) {
  MUDI_CHECK(decision_open_);
  current_.displaced.emplace_back(task_id, type_index);
}

void DecisionRecorder::AddAction(ActionKind kind, int device_id, int arg, double value) {
  MUDI_CHECK(decision_open_);
  TraceAction a;
  a.kind = static_cast<uint8_t>(kind);
  a.device_id = device_id;
  a.arg = arg;
  a.value = value;
  current_.actions.push_back(a);
}

void DecisionRecorder::EndDecision(double wall_us) {
  MUDI_CHECK(decision_open_);
  current_.wall_us = wall_us;
  writer_.AppendDecision(current_);
  decision_open_ = false;
  ++decisions_recorded_;
  FlushIfLarge();
}

void DecisionRecorder::RecordObservation(ObsKind kind, double sim_ms, int device_id, uint64_t key,
                                         double value) {
  TraceObservation obs;
  obs.seq = next_seq_++;
  obs.sim_ms = sim_ms;
  obs.obs_kind = static_cast<uint8_t>(kind);
  obs.device_id = device_id;
  obs.key = key;
  obs.value = value;
  writer_.AppendObservation(obs);
  ++observations_recorded_;
  FlushIfLarge();
}

void DecisionRecorder::RecordPrediction(uint32_t service_index, int batch,
                                        const std::vector<uint32_t>& sorted_mix, double k1,
                                        double k2, double x0, double y0) {
  TracePrediction p;
  p.seq = next_seq_++;
  p.service_index = service_index;
  p.batch = batch;
  p.mix = sorted_mix;
  p.k1 = k1;
  p.k2 = k2;
  p.x0 = x0;
  p.y0 = y0;
  writer_.AppendPrediction(p);
  FlushIfLarge();
}

void DecisionRecorder::RecordQpsFeedback(double sim_ms, int device_id, bool is_p99, double value) {
  TraceQpsFeedback f;
  f.seq = next_seq_++;
  f.sim_ms = sim_ms;
  f.device_id = device_id;
  f.is_p99 = is_p99 ? 1 : 0;
  f.value = value;
  writer_.AppendQpsFeedback(f);
  FlushIfLarge();
}

Status DecisionRecorder::Close() {
  if (finished_) {
    return Status::Ok();
  }
  finished_ = true;
  MUDI_CHECK(!decision_open_);
  writer_.Finish();
  std::string rest = writer_.TakeBuffer();
  out_.write(rest.data(), static_cast<std::streamsize>(rest.size()));
  out_.close();
  if (!out_) {
    return InternalError("decision recorder: write to '" + path_ + "' failed");
  }
  return Status::Ok();
}

}  // namespace replay
}  // namespace mudi
