// The kernel-verification gates as unit tests. Dynamic: every shipped
// kernel runs under the checker with zero error findings, on both engines,
// with bit-identical reports — and the case list itself covers what it
// claims. Static (the KernelAudit suite): clean audits of the shipped
// kernel models on both paper devices, and the seeded model defects each
// caught with the right finding kind.
#include "gpu/kernel_check.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "simgpu/device_spec.h"
#include "simgpu/exec_engine.h"
#include "util/metrics_registry.h"

namespace extnc::gpu {
namespace {

std::vector<std::string> case_names(const std::vector<KernelCheckCase>& cases) {
  std::vector<std::string> names;
  names.reserve(cases.size());
  for (const KernelCheckCase& c : cases) names.push_back(c.name);
  return names;
}

bool has_case(const std::vector<KernelCheckCase>& cases,
              const std::string& name) {
  return std::any_of(cases.begin(), cases.end(), [&](const KernelCheckCase& c) {
    return c.name == name;
  });
}

TEST(KernelCheck, AllShippedKernelsAreCleanOnGtx280) {
  const auto cases =
      run_kernel_checks(simgpu::gtx280(), simgpu::ExecEngine::kSerial);
  ASSERT_FALSE(cases.empty());
  for (const KernelCheckCase& c : cases) {
    EXPECT_EQ(c.report.errors(), 0u)
        << c.name << ":\n" << c.report.to_string();
    EXPECT_GT(c.report.checked_launches, 0u) << c.name;
  }
}

TEST(KernelCheck, AllShippedKernelsAreCleanOn8800gt) {
  const auto cases = run_kernel_checks(simgpu::geforce_8800gt(),
                                       simgpu::ExecEngine::kSerial);
  ASSERT_FALSE(cases.empty());
  for (const KernelCheckCase& c : cases) {
    EXPECT_EQ(c.report.errors(), 0u)
        << c.name << ":\n" << c.report.to_string();
  }
}

TEST(KernelCheck, SerialAndParallelSweepsAreBitIdentical) {
  const auto serial =
      run_kernel_checks(simgpu::gtx280(), simgpu::ExecEngine::kSerial);
  const auto parallel =
      run_kernel_checks(simgpu::gtx280(), simgpu::ExecEngine::kParallel);
  ASSERT_EQ(case_names(serial), case_names(parallel));
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].report, parallel[i].report) << serial[i].name;
  }
}

TEST(KernelCheck, CaseListCoversTheShippedKernelFamilies) {
  const auto gtx = run_kernel_checks(simgpu::gtx280(),
                                     simgpu::ExecEngine::kSerial);
  for (const char* name :
       {"encode/loop", "encode/tb0", "encode/tb5", "decode/single",
        "decode/single+cache", "decode/single+atomic", "decode/multiseg",
        "recode", "hybrid"}) {
    EXPECT_TRUE(has_case(gtx, name)) << name;
  }
  // The atomic-pivot decoder variants only exist where the device has
  // shared-memory atomics (Sec. 5.4.2): present on gtx280, gated off on
  // the 8800 GT. They cover the atomic_min_shared path the sanitizer's
  // atomic exemption exists for.
  const auto gt = run_kernel_checks(simgpu::geforce_8800gt(),
                                    simgpu::ExecEngine::kSerial);
  EXPECT_FALSE(has_case(gt, "decode/single+atomic"));
  EXPECT_EQ(gtx.size(), gt.size() + 2);
}

TEST(KernelAudit, CleanOnBothPaperDevices) {
  for (const simgpu::DeviceSpec& spec :
       {simgpu::gtx280(), simgpu::geforce_8800gt()}) {
    metrics::Registry::instance().reset();
    const AuditReport report = run_kernel_audit(spec, KernelCheckOptions{});
    EXPECT_TRUE(report.clean()) << spec.name;
    EXPECT_EQ(report.cases.size(), 11u) << spec.name;  // 7 + 2 + invert + recode
    for (const AuditCase& c : report.cases) {
      for (const AuditFinding& f : c.findings) {
        EXPECT_TRUE(f.advisory)
            << spec.name << " " << c.kernel << ": " << f.detail;
      }
    }
    EXPECT_EQ(metrics::Registry::instance().value("simgpu.audit.cases"),
              static_cast<double>(report.cases.size()))
        << spec.name;
    EXPECT_EQ(metrics::Registry::instance().value("simgpu.audit.errors"), 0.0)
        << spec.name;
  }
}

TEST(KernelAudit, SeededOobTailCaught) {
  const AuditReport report =
      run_seeded_audit(simgpu::gtx280(), KernelCheckOptions{}, SeedBug::kOobTail);
  EXPECT_FALSE(report.clean());
  bool found = false;
  for (const AuditCase& c : report.cases) {
    for (const AuditFinding& f : c.findings) {
      found |= f.kind == AuditKind::kGlobalFootprint && !f.advisory;
    }
  }
  EXPECT_TRUE(found);
}

TEST(KernelAudit, SeededDivergentBarrierCaught) {
  const AuditReport report = run_seeded_audit(
      simgpu::gtx280(), KernelCheckOptions{}, SeedBug::kDivergentBarrier);
  EXPECT_FALSE(report.clean());
  bool found = false;
  for (const AuditCase& c : report.cases) {
    for (const AuditFinding& f : c.findings) {
      found |= f.kind == AuditKind::kBarrierDivergence && !f.advisory;
    }
  }
  EXPECT_TRUE(found);
}

TEST(KernelAudit, SeededConflictRegressionCaught) {
  const AuditReport report = run_seeded_audit(
      simgpu::gtx280(), KernelCheckOptions{}, SeedBug::kConflictRegression);
  // A lane-blocked tb5 table load serializes its stores 16-deep: the
  // bank-conflict lint (an advisory) must fire at full degree.
  bool found = false;
  for (const AuditCase& c : report.cases) {
    EXPECT_EQ(c.model.max_conflict_degree(), 16u);
    for (const AuditFinding& f : c.findings) {
      found |= f.kind == AuditKind::kBankConflictLint;
    }
  }
  EXPECT_TRUE(found);
}

}  // namespace
}  // namespace extnc::gpu
