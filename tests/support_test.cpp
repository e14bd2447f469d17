//===- tests/support_test.cpp - support library tests ---------*- C++ -*-===//
//
// Part of the CMCC project (PLDI 1991 convolution-compiler reproduction).
//
//===----------------------------------------------------------------------===//

#include "support/Diagnostic.h"
#include "support/Error.h"
#include "support/Hash.h"
#include "support/Random.h"
#include "support/StringUtils.h"
#include "support/TextTable.h"
#include <gtest/gtest.h>
#include <utility>
#include <vector>

using namespace cmcc;

TEST(ErrorTest, SuccessIsFalsy) {
  Error E;
  EXPECT_FALSE(E);
  EXPECT_FALSE(Error::success());
}

TEST(ErrorTest, FailureCarriesMessage) {
  Error E = makeError("register pressure too high");
  EXPECT_TRUE(E);
  EXPECT_EQ(E.message(), "register pressure too high");
}

TEST(ExpectedTest, HoldsValue) {
  Expected<int> V(42);
  ASSERT_TRUE(V);
  EXPECT_EQ(*V, 42);
  EXPECT_EQ(V.takeValue(), 42);
}

TEST(ExpectedTest, HoldsError) {
  Expected<int> V(makeError("nope"));
  ASSERT_FALSE(V);
  EXPECT_EQ(V.error().message(), "nope");
}

TEST(DiagnosticTest, CountsAndFormats) {
  DiagnosticEngine Diags;
  EXPECT_FALSE(Diags.hasErrors());
  Diags.warning({2, 5}, "look out");
  EXPECT_FALSE(Diags.hasErrors());
  Diags.error({3, 1}, "boom");
  EXPECT_TRUE(Diags.hasErrors());
  EXPECT_EQ(Diags.errorCount(), 1u);
  EXPECT_EQ(Diags.str(), "2:5: warning: look out\n3:1: error: boom\n");
  Diags.clear();
  EXPECT_FALSE(Diags.hasErrors());
  EXPECT_TRUE(Diags.diagnostics().empty());
}

TEST(DiagnosticTest, UnknownLocationOmitted) {
  Diagnostic D{DiagnosticSeverity::Note, {}, "hi"};
  EXPECT_EQ(formatDiagnostic(D), "note: hi");
}

TEST(StringUtilsTest, CaseConversion) {
  EXPECT_EQ(toUpper("cshift"), "CSHIFT");
  EXPECT_EQ(toLower("CSHIFT"), "cshift");
  EXPECT_TRUE(equalsInsensitive("SubRoutine", "SUBROUTINE"));
  EXPECT_FALSE(equalsInsensitive("REAL", "REALS"));
}

TEST(StringUtilsTest, TrimAndSplit) {
  EXPECT_EQ(trim("  a b \t"), "a b");
  EXPECT_EQ(trim(""), "");
  auto Pieces = split("a,b,,c", ',');
  ASSERT_EQ(Pieces.size(), 4u);
  EXPECT_EQ(Pieces[0], "a");
  EXPECT_EQ(Pieces[2], "");
  EXPECT_EQ(Pieces[3], "c");
}

TEST(StringUtilsTest, FormatFixed) {
  EXPECT_EQ(formatFixed(3.14159, 2), "3.14");
  EXPECT_EQ(formatFixed(-1.0, 1), "-1.0");
}

TEST(RandomTest, DeterministicAcrossInstances) {
  SplitMix64 A(123), B(123);
  for (int I = 0; I != 100; ++I)
    EXPECT_EQ(A.next(), B.next());
}

TEST(RandomTest, RangesRespected) {
  SplitMix64 Rng(7);
  for (int I = 0; I != 1000; ++I) {
    int64_t V = Rng.nextInRange(-3, 5);
    EXPECT_GE(V, -3);
    EXPECT_LE(V, 5);
    float F = Rng.nextFloatInRange(0.5f, 2.0f);
    EXPECT_GE(F, 0.5f);
    EXPECT_LT(F, 2.0f);
  }
}

TEST(TextTableTest, AlignsColumns) {
  TextTable T;
  T.setHeader({"name", "mflops"});
  T.addRow({"cross5", "72.8"});
  T.addRow({"diamond13", "85.9"});
  std::string Out = T.str();
  EXPECT_NE(Out.find("name"), std::string::npos);
  EXPECT_NE(Out.find("  72.8"), std::string::npos) << Out;
  EXPECT_NE(Out.find("diamond13"), std::string::npos);
}

TEST(HashTest, Fnv1a64StandardVectors) {
  EXPECT_EQ(fnv1a64(""), 0xcbf29ce484222325ull);
  EXPECT_EQ(fnv1a64("a"), 0xaf63dc4c8601ec8cull);
  EXPECT_EQ(fnv1a64("foobar"), 0x85944171f73967e8ull);
  const unsigned char Bytes[] = {'f', 'o', 'o', 'b', 'a', 'r'};
  EXPECT_EQ(fnv1a64(Bytes, sizeof(Bytes)), 0x85944171f73967e8ull);
  EXPECT_EQ(fingerprintHex(fnv1a64("a")), "af63dc4c8601ec8c");
}

namespace {
/// Deterministic test bytes for the fnv1a64Words vectors.
std::vector<unsigned char> hashTestBytes(size_t N) {
  std::vector<unsigned char> B(N);
  for (size_t I = 0; I != N; ++I)
    B[I] = static_cast<unsigned char>(I * 131 + 7);
  return B;
}
} // namespace

TEST(HashTest, Fnv1a64WordsPinnedVectors) {
  // Grid checksums on the wire: a change here is a protocol change.
  // The lengths cover empty, tail only, one word, one block less a
  // byte, one block, a block plus a tail byte and many blocks.
  const std::vector<unsigned char> B = hashTestBytes(4099);
  const std::pair<size_t, uint64_t> Vectors[] = {
      {0, 0xb09c709360ad23a4ull},    {1, 0x1491d206a6a94f78ull},
      {7, 0x88a1389c2cc0b097ull},    {8, 0xd7bda6d8b2c2c54cull},
      {63, 0x5f9fd213ad060e97ull},   {64, 0xdbe7162c742aa8fdull},
      {65, 0x2f885e0143440f0full},   {4099, 0xf726fbf720f8f45eull}};
  for (const auto &[Len, Want] : Vectors)
    EXPECT_EQ(fnv1a64Words(B.data(), Len), Want) << "length " << Len;
}

TEST(HashTest, Fnv1a64WordsSeesEveryBitFlipAndSameLanePairs) {
  std::vector<unsigned char> B = hashTestBytes(200);
  const uint64_t Clean = fnv1a64Words(B.data(), B.size());
  for (size_t I = 0; I != B.size(); ++I)
    for (int Bit = 0; Bit != 8; ++Bit) {
      B[I] ^= static_cast<unsigned char>(1u << Bit);
      EXPECT_NE(fnv1a64Words(B.data(), B.size()), Clean)
          << "byte " << I << " bit " << Bit;
      B[I] ^= static_cast<unsigned char>(1u << Bit);
    }
  // Bit 63 of words 0 and 8 (both lane 0): without the per-step rotate
  // these two flips would cancel inside the lane.
  B[7] ^= 0x80;
  B[71] ^= 0x80;
  EXPECT_NE(fnv1a64Words(B.data(), B.size()), Clean);
  // The length is folded in: trailing zero bytes are not free.
  std::vector<unsigned char> Z(64, 0);
  EXPECT_NE(fnv1a64Words(Z.data(), 63), fnv1a64Words(Z.data(), 64));
}

TEST(HashTest, SeedChainsPiecesAndKeepsTheFingerprintSeed) {
  using namespace std::literals;
  EXPECT_EQ(fnv1a64("bar"sv, fnv1a64("foo")), fnv1a64("foobar"));
  // Plan fingerprints, fault sites and toolchain identities hash from
  // this seed; its value is part of every on-disk key.
  EXPECT_EQ(FingerprintSeed, 1469598103934665603ull);
  EXPECT_EQ(fnv1a64("a"sv, FingerprintSeed), 0x44bd8ad473cd9906ull);
}
