// Spans around the service's calls into the fleet scheduler.
//
// CodingService::run() calls FleetScheduler::encode_segment and
// verify_decode internally, so the benchmark cannot wrap them at its own
// call sites. The link step (CMakeLists.txt, --wrap) routes the service's
// calls to the __wrap_ functions below, which open a span and call the
// library's own definition (__real_). The __real_ declarations are weak:
// if the library renames either function, the wrap matches nothing, the
// hooks are never called and the build still links; the fleet trace then
// simply lacks the two gpu spans.
#include <cstddef>
#include <cstdint>

#include "serve/fleet.h"
#include "trace.h"

using extnc::coding::CodedBatch;
using extnc::serve::DecodeCheck;
using extnc::serve::FleetScheduler;
using extnc::serve::SegmentResult;
using extnc::serve::ServiceMode;

extern "C" {

SegmentResult
__real__ZN5extnc5serve14FleetScheduler14encode_segmentEmmmNS0_11ServiceModeEPNS_6coding10CodedBatchE(
    FleetScheduler* self, std::size_t device, std::uint64_t seed,
    std::size_t blocks, ServiceMode mode, CodedBatch* out)
    __attribute__((weak));

DecodeCheck
__real__ZNK5extnc5serve14FleetScheduler13verify_decodeERKNS_6coding10CodedBatchE(
    const FleetScheduler* self, const CodedBatch& batch)
    __attribute__((weak));

SegmentResult
__wrap__ZN5extnc5serve14FleetScheduler14encode_segmentEmmmNS0_11ServiceModeEPNS_6coding10CodedBatchE(
    FleetScheduler* self, std::size_t device, std::uint64_t seed,
    std::size_t blocks, ServiceMode mode, CodedBatch* out) {
  e2e::trace::Span span(e2e::trace::kGpuEncodeSegment);
  return __real__ZN5extnc5serve14FleetScheduler14encode_segmentEmmmNS0_11ServiceModeEPNS_6coding10CodedBatchE(
      self, device, seed, blocks, mode, out);
}

DecodeCheck
__wrap__ZNK5extnc5serve14FleetScheduler13verify_decodeERKNS_6coding10CodedBatchE(
    const FleetScheduler* self, const CodedBatch& batch) {
  e2e::trace::Span span(e2e::trace::kGpuVerifyDecode);
  return __real__ZNK5extnc5serve14FleetScheduler13verify_decodeERKNS_6coding10CodedBatchE(
      self, batch);
}

}  // extern "C"
