// The paper's security argument, executed: every attack must succeed against
// the Baseline accelerator and be blocked by the Protected one.

#include "soc/attacks.h"

#include <gtest/gtest.h>

namespace aesifc::soc {
namespace {

using accel::SecurityMode;

// --- Fig. 8 / Section 3.2.5: stall covert channel --------------------------------

TEST(TimingChannel, BaselineLeaksAliceSecretToEve) {
  const auto r = runTimingChannelAttack(SecurityMode::Baseline);
  // Eve decodes nearly every bit; the channel carries real information.
  EXPECT_GT(r.accuracy, 0.9);
  EXPECT_GT(r.mi_bits, 0.5);
  EXPECT_GT(r.stalled_cycles, 0u);
}

TEST(TimingChannel, ProtectedClosesTheChannel) {
  const auto r = runTimingChannelAttack(SecurityMode::Protected);
  EXPECT_LT(r.mi_bits, 0.05);
  // Denied stalls are what keep Eve's view flat.
  EXPECT_GT(r.denied_stalls, 0u);
}

TEST(TimingChannel, ProtectedKeepsEveLatencyFlat) {
  const auto base = runTimingChannelAttack(SecurityMode::Baseline);
  const auto prot = runTimingChannelAttack(SecurityMode::Protected);
  // The variance of Eve's latency is the carrier; protection flattens it.
  EXPECT_LT(prot.eve_latency.stddev, base.eve_latency.stddev / 4.0);
}

// Fig. 8 through the serving stack: Alice and Eve co-resident on one pool
// shard, their blocks interleaved in the live pipe. Alice's secret drives
// her fetch cadence, plaintexts, key and encrypt/decrypt mix; Eve's per-op
// completion cycles must not move.
TEST(TimingChannel, ServiceLevelEveTimingIndependentOfAliceSecret) {
  TimingChannelParams p;
  p.secret_bits = 32;
  const auto a = runServiceTimingChannelAttack(p);
  p.seed = 2;
  const auto b = runServiceTimingChannelAttack(p);
  ASSERT_EQ(a.eve_complete_cycles.size(), 32u * 4u);
  EXPECT_EQ(a.eve_complete_cycles, b.eve_complete_cycles);
  EXPECT_EQ(a.mi_bits, 0.0);
  EXPECT_EQ(b.mi_bits, 0.0);
}

// The control: submit volume is a public scheduling signal the service does
// not hide, and the same decoder reads it — so the zero above is a closed
// channel, not a blind decoder.
TEST(TimingChannel, ServiceLevelVolumeControlIsDecoded) {
  TimingChannelParams p;
  p.secret_bits = 32;
  const auto r = runServiceTimingChannelAttack(p, /*modulate_volume=*/true);
  EXPECT_GT(r.accuracy, 0.9);
  EXPECT_GT(r.mi_bits, 0.5);
}

// The AEAD variant: Alice's opens and Eve's seals share the GCM sequencer,
// the GHASH unit and the pipe. Alice's secret drives her plaintexts, AAD,
// IVs, key and tag validity; Eve's completion cycles must not move, and the
// volume control must still be decoded.
TEST(TimingChannel, ServiceLevelAeadEveTimingIndependentOfAliceSecret) {
  TimingChannelParams p;
  p.secret_bits = 32;
  const auto a = runServiceAeadTimingChannelAttack(p);
  p.seed = 2;
  const auto b = runServiceAeadTimingChannelAttack(p);
  ASSERT_EQ(a.eve_complete_cycles.size(), 32u * 4u);
  EXPECT_EQ(a.eve_complete_cycles, b.eve_complete_cycles);
  EXPECT_EQ(a.mi_bits, 0.0);
  EXPECT_EQ(b.mi_bits, 0.0);
  const auto control =
      runServiceAeadTimingChannelAttack(p, /*modulate_volume=*/true);
  EXPECT_GT(control.accuracy, 0.9);
  EXPECT_GT(control.mi_bits, 0.5);
}

// --- Fig. 5 / Section 3.2.3: scratchpad overflow ----------------------------------

TEST(ScratchpadOverflow, BaselineCorruptsAliceKey) {
  const auto r = runScratchpadOverflow(SecurityMode::Baseline);
  EXPECT_TRUE(r.overflow_write_succeeded);
  EXPECT_TRUE(r.alice_key_corrupted);
}

TEST(ScratchpadOverflow, ProtectedBlocksTheWrite) {
  const auto r = runScratchpadOverflow(SecurityMode::Protected);
  EXPECT_FALSE(r.overflow_write_succeeded);
  EXPECT_FALSE(r.alice_key_corrupted);
  EXPECT_GE(r.blocked_events, 1u);
}

// --- Debug peripheral (Section 2.1, [10]) -------------------------------------------

TEST(DebugPort, BaselineLeaksFullKey) {
  const auto r = runDebugPortAttack(SecurityMode::Baseline);
  EXPECT_TRUE(r.eve_enabled_debug);  // config write landed
  EXPECT_TRUE(r.key_recovered);      // full AES-128 key recovered
}

TEST(DebugPort, ProtectedBlocksEveAtBothLayers) {
  const auto r = runDebugPortAttack(SecurityMode::Protected);
  EXPECT_FALSE(r.eve_enabled_debug);  // config write blocked
  EXPECT_FALSE(r.key_recovered);      // stage read blocked even when enabled
  EXPECT_GE(r.blocked_events, 2u);
  // The supervisor's legitimate high-clearance read still works.
  EXPECT_TRUE(r.supervisor_read_ok);
}

// --- Section 3.2.2: key misuse ---------------------------------------------------------

TEST(KeyMisuse, BaselineIsAnEncryptionOracle) {
  const auto r = runKeyMisuseAttack(SecurityMode::Baseline);
  EXPECT_TRUE(r.master_key_output_released);
  EXPECT_TRUE(r.alice_key_output_released);
  EXPECT_TRUE(r.own_key_ok);
}

TEST(KeyMisuse, ProtectedSuppressesForeignKeyOutputs) {
  const auto r = runKeyMisuseAttack(SecurityMode::Protected);
  EXPECT_FALSE(r.master_key_output_released);
  EXPECT_FALSE(r.alice_key_output_released);
  EXPECT_GE(r.declass_rejected, 2u);
  // Usability is preserved: own-key and supervisor flows unaffected.
  EXPECT_TRUE(r.own_key_ok);
  EXPECT_TRUE(r.supervisor_master_ok);
}

// --- Section 3.2.4: config tampering ---------------------------------------------------

TEST(ConfigTamper, BaselineAcceptsUnprivilegedWrite) {
  const auto r = runConfigTamper(SecurityMode::Baseline);
  EXPECT_TRUE(r.eve_write_landed);
}

TEST(ConfigTamper, ProtectedEnforcesSupervisorOnly) {
  const auto r = runConfigTamper(SecurityMode::Protected);
  EXPECT_FALSE(r.eve_write_landed);
  EXPECT_TRUE(r.supervisor_write_landed);
  EXPECT_TRUE(r.eve_read_ok);  // reads remain public
  EXPECT_GE(r.blocked_events, 1u);
}

}  // namespace
}  // namespace aesifc::soc
