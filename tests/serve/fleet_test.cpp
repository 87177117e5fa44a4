// FleetScheduler: deterministic sharded encodes, health transitions,
// modeled timings, decode verification.
#include "serve/fleet.h"

#include <algorithm>

#include <gtest/gtest.h>

#include "simgpu/device_spec.h"

namespace extnc::serve {
namespace {

FleetConfig small_fleet(std::size_t devices) {
  FleetConfig config;
  config.params = {.n = 8, .k = 64};
  for (std::size_t i = 0; i < devices; ++i) {
    config.devices.push_back(i % 2 == 0 ? simgpu::gtx280()
                                        : simgpu::geforce_8800gt());
  }
  return config;
}

// Coefficients and payloads of two batches are equal byte for byte.
bool same_bytes(const coding::CodedBatch& a, const coding::CodedBatch& b) {
  if (a.count() != b.count()) return false;
  for (std::size_t j = 0; j < a.count(); ++j) {
    if (!std::ranges::equal(a.coefficients(j), b.coefficients(j)) ||
        !std::ranges::equal(a.payload(j), b.payload(j))) {
      return false;
    }
  }
  return true;
}

class FleetSchedulerTest : public ::testing::Test {
 protected:
  FleetSchedulerTest() : fleet_(small_fleet(3), [this] { return now_; }) {}

  double now_ = 0;
  FleetScheduler fleet_;
};

TEST_F(FleetSchedulerTest, SameSeedSameBytesAcrossDevicesAndModes) {
  coding::CodedBatch on_dev0;
  coding::CodedBatch on_dev2;
  coding::CodedBatch forced_cpu;
  coding::CodedBatch fallback_cpu;
  const std::uint64_t seed = 0xfeedbeef;
  const SegmentResult a =
      fleet_.encode_segment(0, seed, 12, ServiceMode::kFull, &on_dev0);
  const SegmentResult b =
      fleet_.encode_segment(2, seed, 12, ServiceMode::kFull, &on_dev2);
  const SegmentResult c =
      fleet_.encode_segment(1, seed, 12, ServiceMode::kCpuCodec, &forced_cpu);
  // A supervised dispatch whose breaker is open: the supervisor's CPU
  // fallback (the reference encoder) serves it.
  fleet_.supervisor(1).trip_breaker();
  const SegmentResult d =
      fleet_.encode_segment(1, seed, 12, ServiceMode::kFull, &fallback_cpu);
  EXPECT_TRUE(gpu::rows_match_reference(coding::Encoder(fleet_.content()),
                                        on_dev0));
  EXPECT_FALSE(c.gpu_path);  // forced CPU codec never touches the device
  EXPECT_EQ(c.report.attempts, 0u);
  EXPECT_FALSE(d.gpu_path);
  EXPECT_EQ(d.report.path, gpu::ComputePath::kCpuFallback);
  // Hedge replicas and post-kill re-dispatches rely on this: identical
  // seed -> identical bytes, whatever device or path served it.
  EXPECT_TRUE(same_bytes(on_dev0, on_dev2));
  EXPECT_TRUE(same_bytes(on_dev0, forced_cpu));
  EXPECT_TRUE(same_bytes(on_dev0, fallback_cpu));
  EXPECT_EQ(a.payload_crc, b.payload_crc);
  EXPECT_EQ(a.payload_crc, c.payload_crc);
  EXPECT_EQ(a.payload_crc, d.payload_crc);
}

TEST_F(FleetSchedulerTest, ServedBatchDecodesBitExactly) {
  coding::CodedBatch batch;
  fleet_.encode_segment(0, 7, 12, ServiceMode::kFull, &batch);
  EXPECT_EQ(fleet_.verify_decode(batch), DecodeCheck::kBitExact);
}

TEST_F(FleetSchedulerTest, RankShortBatchIsDetected) {
  // Fewer coded blocks than generation size n: cannot possibly decode.
  coding::CodedBatch thin;
  fleet_.encode_segment(0, 7, fleet_.config().params.n - 1,
                        ServiceMode::kThinned, &thin);
  EXPECT_EQ(fleet_.verify_decode(thin), DecodeCheck::kRankShort);
}

TEST_F(FleetSchedulerTest, CorruptedPayloadIsAMismatch) {
  coding::CodedBatch batch;
  fleet_.encode_segment(0, 7, 12, ServiceMode::kFull, &batch);
  batch.payload(3)[5] ^= 0x40;
  EXPECT_NE(fleet_.verify_decode(batch), DecodeCheck::kBitExact);
}

TEST_F(FleetSchedulerTest, KillBumpsEpochTripsBreakerAndRestoreHeals) {
  EXPECT_TRUE(fleet_.alive(1));
  EXPECT_TRUE(fleet_.all_healthy());
  const std::uint64_t epoch_before = fleet_.epoch(1);

  fleet_.kill(1);
  EXPECT_FALSE(fleet_.alive(1));
  EXPECT_EQ(fleet_.alive_count(), 2u);
  EXPECT_EQ(fleet_.epoch(1), epoch_before + 1);
  EXPECT_TRUE(fleet_.health(1).breaker_open);
  EXPECT_FALSE(fleet_.all_healthy());

  fleet_.restore(1);
  EXPECT_TRUE(fleet_.alive(1));
  EXPECT_FALSE(fleet_.health(1).breaker_open);
  EXPECT_TRUE(fleet_.all_healthy());
  EXPECT_EQ(fleet_.epoch(1), epoch_before + 1);  // epoch never rolls back
}

TEST_F(FleetSchedulerTest, PickDevicePrefersLeastBusyAndHonorsExclusion) {
  fleet_.set_busy_until(0, 5.0);
  fleet_.set_busy_until(1, 1.0);
  fleet_.set_busy_until(2, 3.0);
  EXPECT_EQ(fleet_.pick_device(), std::optional<std::size_t>(1));
  EXPECT_EQ(fleet_.pick_device(1), std::optional<std::size_t>(2));
  fleet_.kill(1);
  EXPECT_EQ(fleet_.pick_device(), std::optional<std::size_t>(2));
  fleet_.kill(2);
  EXPECT_EQ(fleet_.pick_device(0), std::nullopt);  // nobody left
}

TEST_F(FleetSchedulerTest, ModeledTimingsOrderSanely) {
  const double full = fleet_.gpu_segment_s(0, 12);
  const double cpu = fleet_.cpu_segment_s(12);
  EXPECT_GT(full, 0);
  EXPECT_GT(cpu, 0);
  EXPECT_GT(fleet_.nominal_segment_s(12), 0);
  // The modeled GPU attempt is mode-independent now (the batched-dispatch
  // discount is gone): only the block count moves the modeled time, so
  // thinned density must be cheaper than full density.
  EXPECT_LT(fleet_.gpu_segment_s(0, 9), full);
}

TEST_F(FleetSchedulerTest, FaultedEncodeStaysBitExactAndChargesRetries) {
  FleetConfig config = small_fleet(1);
  ASSERT_TRUE(simgpu::FaultPlan::parse("flip@1,flip@3").has_value());
  config.faults = *simgpu::FaultPlan::parse("flip@1,flip@3");
  config.supervisor.backoff_initial_s = 1e-3;
  FleetScheduler faulted(std::move(config), [] { return 0.0; });

  coding::CodedBatch batch;
  const SegmentResult result =
      faulted.encode_segment(0, 99, 12, ServiceMode::kFull, &batch);
  EXPECT_TRUE(gpu::rows_match_reference(coding::Encoder(faulted.content()),
                                        batch));
  EXPECT_EQ(faulted.verify_decode(batch), DecodeCheck::kBitExact);
  // The scripted bit-flips forced retries; the modeled service time must
  // charge them (attempts > 1 and backoff included).
  EXPECT_GT(result.report.attempts, 1u);
  const double clean = faulted.gpu_segment_s(0, 12);
  EXPECT_GT(result.service_s, clean);
}

TEST_F(FleetSchedulerTest, FleetHealthReportsPerDeviceCounters) {
  fleet_.encode_segment(0, 1, 12, ServiceMode::kFull);
  fleet_.encode_segment(0, 2, 12, ServiceMode::kCpuCodec);
  const DeviceHealth health = fleet_.health(0);
  EXPECT_EQ(health.segments, 2u);
  EXPECT_EQ(health.gpu_segments, 1u);
  EXPECT_EQ(health.cpu_segments, 1u);
  EXPECT_EQ(fleet_.fleet_health().size(), 3u);
}

// --- restore ramp ----------------------------------------------------------

TEST_F(FleetSchedulerTest, RestoreEntersTheRampAtStageZero) {
  EXPECT_EQ(fleet_.ramp_stage(0), kRampStages);  // healthy: not ramping
  fleet_.kill(0);
  EXPECT_EQ(fleet_.ramp_stage(0), kRampStages);  // dead: ramp voided
  fleet_.restore(0);
  EXPECT_EQ(fleet_.ramp_stage(0), 0);
  EXPECT_EQ(fleet_.health(0).ramp_stage, 0);
  ASSERT_FALSE(fleet_.ramp_events().empty());
  EXPECT_EQ(fleet_.ramp_events().back().stage, 0);
}

TEST_F(FleetSchedulerTest, RampStageZeroTakesExactlyItsShareOfOffers) {
  fleet_.kill(0);
  fleet_.restore(0);
  // Stage 0 share is 1/8: of 16 offered opportunities, exactly 2 are
  // taken, at deterministic positions (the 8th and 16th offer).
  int taken = 0;
  for (int offer = 1; offer <= 16; ++offer) {
    const bool granted = fleet_.ramp_offer(0);
    if (granted) ++taken;
    EXPECT_EQ(granted, offer % 8 == 0) << "offer " << offer;
  }
  EXPECT_EQ(taken, 2);
  // A device that is not ramping is never throttled.
  for (int i = 0; i < 8; ++i) EXPECT_TRUE(fleet_.ramp_offer(1));
}

TEST_F(FleetSchedulerTest, CleanGpuSegmentsClimbTheRampToCompletion) {
  FleetConfig config = small_fleet(1);
  config.restore_ramp.advance_after = 2;
  FleetScheduler fleet(std::move(config), [] { return 0.0; });
  fleet.kill(0);
  fleet.restore(0);
  for (int stage = 0; stage < kRampStages; ++stage) {
    EXPECT_EQ(fleet.ramp_stage(0), stage);
    fleet.encode_segment(0, 100 + stage, 12, ServiceMode::kFull);
    EXPECT_EQ(fleet.ramp_stage(0), stage);  // one clean segment: not yet
    fleet.encode_segment(0, 200 + stage, 12, ServiceMode::kFull);
  }
  EXPECT_EQ(fleet.ramp_stage(0), kRampStages);  // completed: full share
  EXPECT_TRUE(fleet.ramp_offer(0));
  EXPECT_EQ(fleet.ramp_collapses(), 0u);
  // The recorded stage trail is the monotone climb 0,1,2,3,4.
  ASSERT_EQ(fleet.ramp_events().size(), 5u);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(fleet.ramp_events()[i].stage, i);
  }
}

TEST_F(FleetSchedulerTest, CpuFallbackMidRampCollapsesToStageZero) {
  FleetConfig config = small_fleet(1);
  config.restore_ramp.advance_after = 1;
  FleetScheduler fleet(std::move(config), [] { return 0.0; });
  fleet.kill(0);
  fleet.restore(0);
  fleet.encode_segment(0, 1, 12, ServiceMode::kFull);
  fleet.encode_segment(0, 2, 12, ServiceMode::kFull);
  ASSERT_EQ(fleet.ramp_stage(0), 2);
  // A ladder-forced CPU segment never touched the device: it says nothing
  // about its health and must NOT collapse the ramp.
  fleet.encode_segment(0, 3, 12, ServiceMode::kCpuCodec);
  EXPECT_EQ(fleet.ramp_stage(0), 2);
  EXPECT_EQ(fleet.ramp_collapses(), 0u);
  // But a supervised dispatch that falls back (breaker trips mid-ramp)
  // means the device is not actually healed: back to the bottom.
  fleet.supervisor(0).trip_breaker();
  coding::CodedBatch served;
  const SegmentResult fallback =
      fleet.encode_segment(0, 4, 12, ServiceMode::kFull, &served);
  ASSERT_FALSE(fallback.gpu_path);
  // The fallback still serves correct bytes.
  EXPECT_TRUE(gpu::rows_match_reference(coding::Encoder(fleet.content()),
                                        served));
  EXPECT_EQ(fleet.ramp_stage(0), 0);
  EXPECT_EQ(fleet.ramp_collapses(), 1u);
  EXPECT_EQ(fleet.ramp_events().back().stage, 0);
}

TEST_F(FleetSchedulerTest, KillMidRampVoidsItAndRestoreStartsFresh) {
  fleet_.kill(2);
  fleet_.restore(2);
  ASSERT_EQ(fleet_.ramp_stage(2), 0);
  fleet_.kill(2);
  EXPECT_EQ(fleet_.ramp_stage(2), kRampStages);  // dead device: no ramp
  fleet_.restore(2);
  EXPECT_EQ(fleet_.ramp_stage(2), 0);  // re-earn the share from scratch
}

TEST_F(FleetSchedulerTest, DisabledRampRestoresAtFullShare) {
  FleetConfig config = small_fleet(1);
  config.restore_ramp.enabled = false;
  FleetScheduler fleet(std::move(config), [] { return 0.0; });
  fleet.kill(0);
  fleet.restore(0);
  EXPECT_EQ(fleet.ramp_stage(0), kRampStages);
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(fleet.ramp_offer(0));
  EXPECT_TRUE(fleet.ramp_events().empty());
}

}  // namespace
}  // namespace extnc::serve
