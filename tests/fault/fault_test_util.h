// Shared fixture for the fault-injection suite: KvTest plus guaranteed
// failpoint deactivation around every test (a failed ASSERT must never
// leak armed faults into the next test), plus scrubbed fault/retry env.
#pragma once

#include "../core/kv_test_util.h"
#include "fault/failpoint.h"
#include "fault/retry.h"

namespace papyrus::testutil {

inline void ScrubFaultEnv() {
  for (const char* var :
       {"PAPYRUSKV_FAULTS", "PAPYRUSKV_FAULT_SEED",
        "PAPYRUSKV_FAULT_DELAY_US", "PAPYRUSKV_TIMEOUT_MS",
        "PAPYRUSKV_RETRY_MAX", "PAPYRUSKV_BARRIER_TIMEOUT_MS"}) {
    unsetenv(var);
  }
}

class FaultTest : public KvTest {
 protected:
  void SetUp() override {
    KvTest::SetUp();
    ScrubFaultEnv();
    // Burn the first-init env hook now, with a scrubbed environment:
    // otherwise the first papyruskv_init in this process would reconfigure
    // from env and wipe whatever spec the test armed beforehand.
    ASSERT_TRUE(fault::InitFromEnvOnce().ok());
    fault::Registry::Instance().DisableAll();
    delay_us_ = fault::DelayMicros();
  }
  void TearDown() override {
    fault::Registry::Instance().DisableAll();
    fault::SetDelayMicros(delay_us_);
    ScrubFaultEnv();
    KvTest::TearDown();
  }

  uint64_t delay_us_ = 0;  // net.msg.delay length, restored at TearDown

  // Arms `spec` with a fixed seed; asserts it parsed.
  void Arm(const std::string& spec, uint64_t seed = 1234) {
    ASSERT_TRUE(fault::Registry::Instance().Configure(spec, seed).ok())
        << spec;
  }
};

}  // namespace papyrus::testutil
