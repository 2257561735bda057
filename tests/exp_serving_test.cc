#include <gtest/gtest.h>

#include <memory>

#include "src/exp/cluster_experiment.h"
#include "src/exp/presets.h"
#include "src/exp/serving_replica.h"

namespace mudi {
namespace {

// Serving-path behaviours observed through public interfaces: overload
// shedding, liveness backstop, probe semantics, pause effects.

ExperimentOptions OneGpuOptions(size_t service, double qps, TimeMs horizon) {
  ExperimentOptions options;
  options.num_nodes = 1;
  options.gpus_per_node = 1;
  options.num_services = 1;
  options.service_offset = service;
  options.horizon_ms = horizon;
  options.qps_factory = [qps](size_t, int) -> std::shared_ptr<const QpsProfile> {
    return std::make_shared<ConstantQps>(qps);
  };
  return options;
}

TEST(ServingPathTest, ModerateLoadMeetsSloSolo) {
  // ResNet50 at its nominal 200 QPS with no training: no violations.
  ExperimentOptions options = OneGpuOptions(0, 200.0, 60.0 * kMsPerSecond);
  PerfOracle oracle(options.oracle_seed);
  auto policy = MakePolicy("GSLICE", oracle);
  ClusterExperiment experiment(options, policy.get());
  ExperimentResult result = experiment.Run();
  EXPECT_DOUBLE_EQ(result.OverallSloViolationRate(), 0.0);
  const auto& m = result.per_service.at("ResNet50");
  EXPECT_GT(m.served_requests, 0.8 * 200.0 * 60.0);  // nearly all served
  EXPECT_LT(m.mean_latency_ms, 150.0);
}

TEST(ServingPathTest, SustainedOverloadViolatesEveryWindow) {
  // 20x the sustainable rate: queues explode / shed; every window violates.
  ExperimentOptions options = OneGpuOptions(0, 4000.0, 60.0 * kMsPerSecond);
  PerfOracle oracle(options.oracle_seed);
  auto policy = MakePolicy("GSLICE", oracle);
  ClusterExperiment experiment(options, policy.get());
  ExperimentResult result = experiment.Run();
  EXPECT_GT(result.OverallSloViolationRate(), 0.8);
}

TEST(ServingPathTest, LivenessBackstopTerminatesStuckRuns) {
  // One enormous task on a device whose service needs the whole GPU at 20x
  // load: training may stay preempted forever; max_sim_ms must end the run.
  TrainingArrival task;
  task.task_id = 0;
  task.arrival_ms = 1000.0;
  task.type_index = 6;
  task.work_full_gpu_ms = 1e12;
  ExperimentOptions options = OneGpuOptions(2, 4000.0, /*horizon=*/0.0);
  options.trace_override = {task};
  options.max_sim_ms = 90.0 * kMsPerSecond;
  PerfOracle oracle(options.oracle_seed);
  auto policy = MakePolicy("Mudi", oracle);
  ClusterExperiment experiment(options, policy.get());
  ExperimentResult result = experiment.Run();
  EXPECT_EQ(result.CompletedTasks(), 0u);  // terminated by the backstop
}

TEST(ServingPathTest, ProbeOverridesDoNotMutateState) {
  TrainingArrival task;
  task.task_id = 0;
  task.arrival_ms = 1000.0;
  task.type_index = 1;
  task.work_full_gpu_ms = 1e9;
  ExperimentOptions options = OneGpuOptions(0, 200.0, 20.0 * kMsPerSecond);
  options.trace_override = {task};
  PerfOracle oracle(options.oracle_seed);
  auto policy = MakePolicy("GSLICE", oracle);
  ClusterExperiment experiment(options, policy.get());
  experiment.Run();

  const GpuDevice& dev = experiment.device(0);
  ASSERT_EQ(dev.trainings().size(), 1u);
  int batch_before = dev.inference().batch_size;
  double frac_before = dev.inference().gpu_fraction;
  double train_frac_before = dev.trainings()[0].gpu_fraction;

  // What-if probes with overrides: observations come back, state unchanged.
  double lat = experiment.ProbeInferenceLatencyMs(0, 512, 0.33);
  double iter = experiment.ProbeTrainingIterMs(0, 0, 0.77, 512, 0.33);
  EXPECT_GT(lat, 0.0);
  EXPECT_GT(iter, 0.0);
  EXPECT_EQ(dev.inference().batch_size, batch_before);
  EXPECT_DOUBLE_EQ(dev.inference().gpu_fraction, frac_before);
  EXPECT_DOUBLE_EQ(dev.trainings()[0].gpu_fraction, train_frac_before);
}

TEST(ServingPathTest, ProbeAnticipatesMemoryPressureOfLargeBatch) {
  // A probe with a batch big enough to overflow device memory must report a
  // slower (paged) training iteration than a small-batch probe.
  TrainingArrival task;
  task.task_id = 0;
  task.arrival_ms = 1000.0;
  task.type_index = 6;  // BERT: ~26 GB working set
  task.work_full_gpu_ms = 1e9;
  ExperimentOptions options = OneGpuOptions(2, 200.0, 20.0 * kMsPerSecond);  // GPT2 service
  options.trace_override = {task};
  PerfOracle oracle(options.oracle_seed);
  auto policy = MakePolicy("Mudi", oracle);
  ClusterExperiment experiment(options, policy.get());
  experiment.Run();
  ASSERT_NE(experiment.device(0).FindTraining(0), nullptr);

  double small = 0.0;
  double large = 0.0;
  for (int i = 0; i < 32; ++i) {  // average out observation noise
    small += experiment.ProbeTrainingIterMs(0, 0, 0.5, /*inf_batch=*/16, 0.5);
    large += experiment.ProbeTrainingIterMs(0, 0, 0.5, /*inf_batch=*/512, 0.5);
  }
  EXPECT_GT(large, small * 1.2);
}

TEST(ServingPathTest, PausedTrainingMakesNoProgress) {
  TrainingArrival task;
  task.task_id = 0;
  task.arrival_ms = 1000.0;
  task.type_index = 3;  // NCF, small
  task.work_full_gpu_ms = 1e9;
  ExperimentOptions options = OneGpuOptions(0, 200.0, 30.0 * kMsPerSecond);
  options.trace_override = {task};
  PerfOracle oracle(options.oracle_seed);
  auto policy = MakePolicy("Random", oracle);  // never pauses by itself
  ClusterExperiment experiment(options, policy.get());
  experiment.Run();
  const TrainingInstance* t = experiment.device(0).FindTraining(0);
  ASSERT_NE(t, nullptr);
  // The task made progress while running...
  EXPECT_LT(t->work_remaining_ms, 1e9);
  EXPECT_FALSE(t->paused);
}

TEST(ServingPathTest, ServiceOffsetPinsService) {
  for (size_t s = 0; s < ModelZoo::InferenceServices().size(); ++s) {
    ExperimentOptions options = OneGpuOptions(s, 100.0, 1000.0);
    PerfOracle oracle(options.oracle_seed);
    auto policy = MakePolicy("Random", oracle);
    ClusterExperiment experiment(options, policy.get());
    EXPECT_EQ(experiment.ServiceOnDevice(0).name, ModelZoo::InferenceServices()[s].name);
  }
}

TEST(ServingPathTest, CanFitTrainingTracksInferenceFootprint) {
  ExperimentOptions options = OneGpuOptions(0, 100.0, 1000.0);
  PerfOracle oracle(options.oracle_seed);
  auto policy = MakePolicy("Random", oracle);
  ClusterExperiment experiment(options, policy.get());
  const TrainingTaskSpec& big = ModelZoo::TrainingTaskByName("BERT");
  EXPECT_TRUE(experiment.CanFitTraining(0, big));
  experiment.devices()[0].mutable_inference().mem_required_mb =
      experiment.device(0).memory_mb() - 1000.0;
  EXPECT_FALSE(experiment.CanFitTraining(0, big));
}

TEST(ServingPathTest, SmallPresetGsliceWedgeReportsBackstop) {
  // bench_throughput's small preset: GSLICE tunes every replica to batch 512,
  // after which the FCFS head fits on no device and the run only ends at the
  // liveness backstop. The result must say so instead of looking finished.
  ExperimentOptions options;
  options.num_nodes = 2;
  options.gpus_per_node = 2;
  options.num_services = 4;
  options.trace.num_tasks = 32;
  options.trace.mean_interarrival_ms = 2.0 * kMsPerSecond;
  options.trace.duration_compression = 8000.0;
  options.trace.seed = 6;
  options.max_sim_ms = 300.0 * kMsPerSecond;
  PerfOracle oracle(options.oracle_seed);
  auto gslice = MakePolicy("GSLICE", oracle);
  ExperimentResult wedged = ClusterExperiment(options, gslice.get()).Run();
  EXPECT_TRUE(wedged.stopped_by_backstop);
  EXPECT_GT(wedged.unfinished_tasks, 0u);
  EXPECT_EQ(wedged.unfinished_tasks, 32u - wedged.CompletedTasks());

  // The same preset under Mudi finishes: neither field is set.
  auto mudi = MakePolicy("Mudi", oracle);
  ExperimentResult finished = ClusterExperiment(options, mudi.get()).Run();
  EXPECT_FALSE(finished.stopped_by_backstop);
  EXPECT_EQ(finished.unfinished_tasks, 0u);
  EXPECT_EQ(finished.CompletedTasks(), 32u);
}

// ServingReplica on its own: a simulator, an Rng, an oracle and a device are
// all it needs; no ClusterExperiment exists in these tests.
struct ReplicaFixture {
  explicit ReplicaFixture(int batch, size_t num_devices = 1)
      : ctx(sim, rng, oracle, telemetry, /*arrival_tick_ms=*/10.0), replicas(num_devices) {
    for (size_t d = 0; d < num_devices; ++d) {
      devices.emplace_back(static_cast<int>(d));
      InferenceInstance inf;
      inf.service_index = 0;
      inf.batch_size = batch;
      inf.gpu_fraction = 0.5;
      inf.mem_required_mb = InferenceMemoryMb(service(), batch);
      devices.back().PlaceInference(inf);
    }
  }
  static const InferenceServiceSpec& service() { return ModelZoo::InferenceServices()[0]; }

  Simulator sim;
  Rng rng{1};
  PerfOracle oracle{42};
  Telemetry telemetry;  // disabled
  ServingContext ctx;
  std::vector<GpuDevice> devices;
  std::vector<ServingReplica> replicas;
};

TEST(ServingReplicaTest, ShedsOldestCohortsAtTheQueueCapWithPenalty) {
  ReplicaFixture f(/*batch=*/4);
  ServingReplica& r = f.replicas[0];
  r.qps = std::make_shared<ConstantQps>(6000.0);  // ~60 requests per 10 ms tick
  r.busy = true;  // a batch in flight: nothing drains, so the queue only grows
  const double cap = ServingReplica::kQueueCapBatches * 4.0;
  Rng mirror(1);  // the same stream: one Poisson draw per tick
  double arrived = 0.0;
  for (int tick = 0; tick < 10; ++tick) {
    f.sim.RunUntil(10.0 * tick);
    r.ArrivalTick(f.ctx, f.devices[0]);
    arrived += static_cast<double>(mirror.Poisson(6000.0 * 10.0 / kMsPerSecond));
    EXPECT_LE(r.queued, cap);
  }
  double shed = 0.0;
  for (const auto& [latency, weight] : r.window_latencies) {
    EXPECT_DOUBLE_EQ(latency, 10.0 * ReplicaFixture::service().slo_ms);
    shed += weight;
  }
  EXPECT_GT(shed, 0.0);
  EXPECT_DOUBLE_EQ(shed + r.queued, arrived);
  EXPECT_GT(r.queue.front().arrival_ms, 0.0) << "the oldest cohorts go first";
}

TEST(ServingReplicaTest, FormationTimeoutStartsAPartialBatch) {
  ReplicaFixture f(/*batch=*/512);
  ServingReplica& r = f.replicas[0];
  r.qps = std::make_shared<ConstantQps>(2000.0);  // ~20 requests, far below 512
  r.ArrivalTick(f.ctx, f.devices[0]);
  const double queued = r.queued;
  ASSERT_GT(queued, 0.0);
  const TimeMs timeout = 0.25 * ReplicaFixture::service().slo_ms;
  f.sim.RunUntil(timeout - 1.0);
  EXPECT_FALSE(r.busy) << "no batch before the formation timeout";
  EXPECT_NE(r.timeout_event, Simulator::kInvalidEventId);
  f.sim.RunUntil(timeout);
  EXPECT_TRUE(r.busy) << "the timeout starts whatever is queued";
  EXPECT_DOUBLE_EQ(r.queued, 0.0);
  f.sim.RunUntilIdle();  // the batch finishes; no periodic event is armed
  EXPECT_DOUBLE_EQ(r.served, queued);
  EXPECT_GE(r.latency_weighted_sum / r.served, timeout);
}

TEST(ServingReplicaTest, FailoverTaintsTheSurvivorsWindow) {
  ReplicaFixture f(/*batch=*/4, /*num_devices=*/2);
  for (ServingReplica& r : f.replicas) {
    r.qps = std::make_shared<ConstantQps>(2000.0);
  }
  f.replicas[0].busy = true;  // device 0 holds its cohort in the queue
  f.replicas[0].ArrivalTick(f.ctx, f.devices[0]);
  const double queued = f.replicas[0].queued;
  ASSERT_GT(queued, 0.0);

  // Device 0 dies a second later: its queue fails over to device 1 with the
  // original arrival time, so the detour blows the SLO there. (A silent
  // profile keeps the failover arrivals out of the count.)
  f.replicas[0].qps = std::make_shared<ConstantQps>(0.0);
  f.sim.RunUntil(1.0 * kMsPerSecond);
  f.devices[0].SetHealthy(false);
  FailReplica(f.ctx, f.replicas, f.devices, /*device_id=*/0, f.sim.Now());
  EXPECT_DOUBLE_EQ(f.ctx.rerouted_requests, queued);
  ServingReplica& survivor = f.replicas[1];
  EXPECT_TRUE(survivor.window_failure_tainted);
  f.sim.RunUntil(1.5 * kMsPerSecond);  // the re-routed batch completes
  EXPECT_DOUBLE_EQ(survivor.served, queued);
  survivor.CloseSloWindow(f.ctx, f.devices[1]);
  EXPECT_EQ(survivor.windows_total, 1u);
  EXPECT_EQ(survivor.windows_violated, 1u);
  EXPECT_EQ(survivor.windows_violated_failure, 1u);

  // An untainted violation is load-attributed.
  survivor.window_latencies.emplace_back(10.0 * ReplicaFixture::service().slo_ms, 1.0);
  survivor.CloseSloWindow(f.ctx, f.devices[1]);
  EXPECT_EQ(survivor.windows_violated, 2u);
  EXPECT_EQ(survivor.windows_violated_failure, 1u);
}

}  // namespace
}  // namespace mudi
