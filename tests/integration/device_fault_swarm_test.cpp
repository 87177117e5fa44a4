// End-to-end graceful degradation: a swarm whose seed encodes on a GPU
// that dies mid-transfer must still complete, bit-exact, by falling back
// to the CPU — with the whole episode visible in the metrics registry and
// on the profiler trace.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "gpu/resilient_launcher.h"
#include "net/file_transfer.h"
#include "net/swarm.h"
#include "simgpu/profiler.h"
#include "util/metrics_registry.h"

namespace extnc {
namespace {

TEST(DeviceFaultSwarm, SeedLosesGpuMidTransferSwarmStillCompletes) {
  metrics::Registry::instance().reset();
  const simgpu::DeviceSpec device = simgpu::gtx280();
  simgpu::Profiler profiler;

  // The seed's device dies partway through serving the swarm (each served
  // batch costs two kernel launches, so index 9 is well into the run).
  simgpu::FaultPlan plan;
  plan.scripted[9] = simgpu::FaultClass::kDeviceLost;
  gpu::ResilientSeed seed(device, gpu::EncodeScheme::kTable5,
                          gpu::SupervisorConfig{}, plan,
                          /*blocks_per_launch=*/4);
  ASSERT_NE(seed.injector(), nullptr);
  seed.supervisor().set_trace(&profiler, &device);

  net::SwarmConfig config;
  config.params = {.n = 8, .k = 64};
  config.peers = 6;
  config.neighbors = 3;
  config.seed = 5;
  config.make_seed_encoder = [&seed](const coding::Segment& segment) {
    return seed.bind_segment(segment);
  };
  const net::SwarmResult result = net::run_swarm(config);

  // The transfer finished and every peer holds the exact source segment.
  EXPECT_TRUE(result.all_completed);
  EXPECT_TRUE(result.all_decoded_correctly);

  // The device really was lost, and the seed degraded rather than died.
  const gpu::SupervisorTotals& totals = seed.supervisor().totals();
  EXPECT_EQ(totals.device_losses, 1u);
  EXPECT_GT(totals.gpu_ok, 0u);      // served from the GPU before the loss
  EXPECT_GT(totals.fallbacks, 0u);   // and from the CPU after
  EXPECT_TRUE(seed.supervisor().breaker_open());

  // The episode is counted in the registry...
  metrics::Registry& registry = metrics::Registry::instance();
  EXPECT_EQ(registry.value("gpu.resilient.device_lost"), 1.0);
  EXPECT_GT(registry.value("gpu.resilient.fallbacks"), 0.0);
  EXPECT_GT(registry.value("gpu.resilient.operations"),
            registry.value("gpu.resilient.fallbacks"));
  EXPECT_EQ(registry.value("gpu.resilient.breaker_open"), 1.0);
  EXPECT_EQ(registry.value("simgpu.faults.device_lost"), 1.0);

  // ...and marked on the trace timeline.
  EXPECT_EQ(profiler.label_summary("fault/device_lost").launches, 1u);
  EXPECT_GT(profiler.label_summary("fault/cpu_fallback").launches, 0u);
}

TEST(DeviceFaultSwarm, FaultFreeGpuSeedMatchesBaselineCompletion) {
  // Sanity: with no faults injected the supervised GPU seed changes
  // nothing about what the swarm receives — every peer decodes correctly
  // and the seed never leaves the GPU path.
  const simgpu::DeviceSpec device = simgpu::gtx280();
  gpu::ResilientSeed seed(device, gpu::EncodeScheme::kTable5);
  EXPECT_EQ(seed.injector(), nullptr);  // empty plan: no injector at all

  net::SwarmConfig config;
  config.params = {.n = 8, .k = 64};
  config.peers = 5;
  config.seed = 6;
  config.make_seed_encoder = [&seed](const coding::Segment& segment) {
    return seed.bind_segment(segment);
  };
  const net::SwarmResult result = net::run_swarm(config);
  EXPECT_TRUE(result.all_completed);
  EXPECT_TRUE(result.all_decoded_correctly);
  const gpu::SupervisorTotals& totals = seed.supervisor().totals();
  EXPECT_GT(totals.operations, 0u);
  EXPECT_EQ(totals.operations, totals.gpu_ok);
  EXPECT_EQ(totals.fallbacks, 0u);
  EXPECT_FALSE(seed.supervisor().breaker_open());
}

TEST(DeviceFaultSwarm, FileTransferRoundtripsThroughFaultySupervisedSeed) {
  // The generation-addressed hook: a whole-file encode served by a seed
  // whose device misbehaves (transient failures + a silent bit flip + a
  // late loss) must still produce a container that decodes to the exact
  // original content.
  Rng rng(7);
  std::vector<std::uint8_t> content(3000);
  for (auto& b : content) b = static_cast<std::uint8_t>(rng.next_below(256));

  auto plan = simgpu::FaultPlan::parse("flip@3,fail@6,lost@30", 13);
  ASSERT_TRUE(plan.has_value());
  gpu::SupervisorConfig supervision;
  supervision.verify_sample = 64;  // catch the flip deterministically
  gpu::ResilientSeed seed(simgpu::gtx280(), gpu::EncodeScheme::kTable5,
                          supervision, *plan);

  net::FileEncodeOptions options;
  options.params = {.n = 8, .k = 64};
  options.redundancy = 0.25;
  options.seed = 8;
  options.make_seed_encoder = [&seed](const coding::Params& params,
                                      std::span<const std::uint8_t> data) {
    return seed.bind_content(params, data);
  };
  const auto container = net::encode_file(content, options);
  const auto decoded = net::decode_file(container);
  ASSERT_TRUE(decoded.ok) << decoded.error;
  EXPECT_EQ(decoded.content, content);

  const gpu::SupervisorTotals& totals = seed.supervisor().totals();
  EXPECT_GT(totals.corrupted_outputs, 0u);  // the flip was caught, not shipped
  EXPECT_GT(totals.launch_failures, 0u);
  EXPECT_EQ(totals.device_losses, 1u);
  EXPECT_GT(totals.fallbacks, 0u);
}

}  // namespace
}  // namespace extnc
