//===- tests/scheduleio_test.cpp - .cmccode format tests ------*- C++ -*-===//
//
// Part of the CMCC project (PLDI 1991 convolution-compiler reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests for the compiled-stencil serialization: round-trips preserve
/// every op, loaded code is re-verified (tampering is caught), and a
/// loaded schedule executes identically to the original.
///
//===----------------------------------------------------------------------===//

#include "core/ScheduleIO.h"
#include "runtime/Executor.h"
#include "runtime/Reference.h"
#include "stencil/PatternLibrary.h"
#include <cstring>
#include <gtest/gtest.h>
#include <memory>

using namespace cmcc;

namespace {

MachineConfig machine() { return MachineConfig::testMachine16(); }

CompiledStencil compileById(PatternId Id) {
  ConvolutionCompiler CC(machine());
  Expected<CompiledStencil> Compiled = CC.compile(makePattern(Id));
  EXPECT_TRUE(Compiled);
  return Compiled.takeValue();
}

bool sameOps(const LineSchedule &A, const LineSchedule &B) {
  if (A.size() != B.size())
    return false;
  for (size_t I = 0; I != A.size(); ++I)
    if (A[I].str() != B[I].str() || A[I].ChainStart != B[I].ChainStart ||
        A[I].ChainEnd != B[I].ChainEnd || A[I].AddReg != B[I].AddReg)
      return false;
  return true;
}

} // namespace

TEST(ScheduleIOTest, RoundTripPreservesEverything) {
  for (PatternId Id : allPatterns()) {
    CompiledStencil Original = compileById(Id);
    std::string Text = writeCompiledStencil(Original, machine());
    Expected<CompiledStencil> Loaded = parseCompiledStencil(Text, machine());
    ASSERT_TRUE(Loaded) << patternName(Id) << ": "
                        << Loaded.error().message();
    EXPECT_EQ(Loaded->Spec.str(), Original.Spec.str());
    ASSERT_EQ(Loaded->Widths.size(), Original.Widths.size());
    for (size_t I = 0; I != Original.Widths.size(); ++I) {
      const WidthSchedule &A = Original.Widths[I];
      const WidthSchedule &B = Loaded->Widths[I];
      EXPECT_EQ(A.Width, B.Width);
      EXPECT_EQ(A.Regs.plan().Sizes, B.Regs.plan().Sizes);
      EXPECT_EQ(A.Regs.plan().UnrollFactor, B.Regs.plan().UnrollFactor);
      EXPECT_TRUE(sameOps(A.Prologue, B.Prologue)) << patternName(Id);
      ASSERT_EQ(A.Phases.size(), B.Phases.size());
      for (size_t P = 0; P != A.Phases.size(); ++P)
        EXPECT_TRUE(sameOps(A.Phases[P], B.Phases[P]))
            << patternName(Id) << " width " << A.Width << " phase " << P;
    }
    // Second round trip is textually identical (canonical form).
    EXPECT_EQ(writeCompiledStencil(*Loaded, machine()), Text);
  }
}

TEST(ScheduleIOTest, LoadedScheduleExecutesCorrectly) {
  MachineConfig Config = MachineConfig::withNodeGrid(2, 2);
  ConvolutionCompiler CC(Config);
  Expected<CompiledStencil> Original =
      CC.compile(makePattern(PatternId::Diamond13));
  ASSERT_TRUE(Original);
  std::string Text = writeCompiledStencil(*Original, Config);
  Expected<CompiledStencil> Loaded = parseCompiledStencil(Text, Config);
  ASSERT_TRUE(Loaded) << Loaded.error().message();

  const int Sub = 10;
  NodeGrid Grid(Config);
  DistributedArray R(Grid, Sub, Sub), X(Grid, Sub, Sub);
  Array2D GlobalX(R.globalRows(), R.globalCols());
  GlobalX.fillRandom(1234);
  X.scatter(GlobalX);
  StencilArguments Args;
  Args.Result = &R;
  Args.Source = &X;
  std::vector<std::unique_ptr<DistributedArray>> Coeffs;
  ReferenceBindings B;
  B.Source = &GlobalX;
  std::vector<Array2D> Globals;
  for (const std::string &Name : Loaded->Spec.coefficientArrayNames()) {
    auto C = std::make_unique<DistributedArray>(Grid, Sub, Sub);
    Array2D G(R.globalRows(), R.globalCols());
    G.fillRandom(std::hash<std::string>{}(Name));
    C->scatter(G);
    Args.Coefficients[Name] = C.get();
    Globals.push_back(std::move(G));
    Coeffs.push_back(std::move(C));
  }
  size_t I = 0;
  for (const std::string &Name : Loaded->Spec.coefficientArrayNames())
    B.Coefficients[Name] = &Globals[I++];

  Executor Exec(Config);
  auto Report = Exec.run(*Loaded, Args, 1);
  ASSERT_TRUE(Report) << Report.error().message();
  Array2D Want = evaluateReference(Loaded->Spec, B, R.globalRows(),
                                   R.globalCols());
  EXPECT_LT(Array2D::maxAbsDifference(R.gather(), Want), 2e-4f);
}

TEST(ScheduleIOTest, MultiSourceRoundTrip) {
  MachineConfig Config = machine();
  StencilSpec Spec;
  Spec.Result = "R";
  Spec.Source = "U";
  Spec.ExtraSources.push_back("V");
  Tap A;
  A.At = {0, 1};
  A.Coeff = Coefficient::array("C1");
  Spec.Taps.push_back(A);
  Tap BTap;
  BTap.At = {-1, 0};
  BTap.SourceIndex = 1;
  BTap.Coeff = Coefficient::scalar(0.25);
  BTap.Sign = -1.0;
  Spec.Taps.push_back(BTap);

  ConvolutionCompiler CC(Config);
  Expected<CompiledStencil> Original = CC.compile(Spec);
  ASSERT_TRUE(Original);
  std::string Text = writeCompiledStencil(*Original, Config);
  Expected<CompiledStencil> Loaded = parseCompiledStencil(Text, Config);
  ASSERT_TRUE(Loaded) << Loaded.error().message();
  EXPECT_EQ(Loaded->Spec.ExtraSources,
            std::vector<std::string>{"V"});
  EXPECT_EQ(Loaded->Spec.Taps[1].SourceIndex, 1);
  EXPECT_DOUBLE_EQ(Loaded->Spec.Taps[1].Coeff.Value, 0.25);
  EXPECT_DOUBLE_EQ(Loaded->Spec.Taps[1].Sign, -1.0);
}

TEST(ScheduleIOTest, TamperedRegisterCaught) {
  CompiledStencil Original = compileById(PatternId::Square9);
  std::string Text = writeCompiledStencil(Original, machine());
  // Flip one madd's multiplier register: "M 5 ..." -> "M 6 ...".
  size_t Pos = Text.find("\nM ");
  ASSERT_NE(Pos, std::string::npos);
  // Change the first digit of the mul register.
  size_t Digit = Pos + 3;
  Text[Digit] = Text[Digit] == '9' ? '8' : Text[Digit] + 1;
  Expected<CompiledStencil> Loaded = parseCompiledStencil(Text, machine());
  ASSERT_FALSE(Loaded);
  EXPECT_NE(Loaded.error().message().find("verification"),
            std::string::npos)
      << Loaded.error().message();
}

TEST(ScheduleIOTest, WrongMachineRejected) {
  CompiledStencil Original = compileById(PatternId::Cross5);
  std::string Text = writeCompiledStencil(Original, machine());
  MachineConfig Other = machine();
  Other.NumRegisters = 16;
  Expected<CompiledStencil> Loaded = parseCompiledStencil(Text, Other);
  ASSERT_FALSE(Loaded);
  EXPECT_NE(Loaded.error().message().find("registers"), std::string::npos);
}

TEST(ScheduleIOTest, TruncationCaught) {
  CompiledStencil Original = compileById(PatternId::Cross5);
  std::string Text = writeCompiledStencil(Original, machine());
  Text.resize(Text.size() / 2);
  EXPECT_FALSE(parseCompiledStencil(Text, machine()));
}

TEST(ScheduleIOTest, GarbageRejected) {
  EXPECT_FALSE(parseCompiledStencil("", machine()));
  EXPECT_FALSE(parseCompiledStencil("not cmccode\n", machine()));
  EXPECT_FALSE(parseCompiledStencil("cmccode 2\n", machine()));
  EXPECT_FALSE(parseCompiledStencil(
      "cmccode 1\nmachine registers 32\nbogus\nend\n", machine()));
}

//===----------------------------------------------------------------------===//
// Robustness sweeps: arbitrarily damaged input must produce a diagnostic
// (an Expected error), never UB, an abort, or a giant allocation. These
// are the files the service's disk cache tier swallows as counted
// misses.
//===----------------------------------------------------------------------===//

TEST(ScheduleIORobustnessTest, TruncationSweep) {
  CompiledStencil Original = compileById(PatternId::Diamond13);
  std::string Text = writeCompiledStencil(Original, machine());
  // Every prefix is either rejected or (never, for this format, since
  // 'end' is the last line) accepted — the point is that no prefix
  // crashes. Step through at varied strides to keep the sweep fast but
  // land on every structural boundary near the end.
  for (size_t Len = 0; Len < Text.size(); Len += (Len < 200 ? 7 : 131)) {
    Expected<CompiledStencil> Loaded =
        parseCompiledStencil(Text.substr(0, Len), machine());
    EXPECT_FALSE(Loaded) << "prefix of " << Len << " bytes parsed";
  }
  // Dropping only the final 'end' line is also truncation.
  Expected<CompiledStencil> NoEnd = parseCompiledStencil(
      Text.substr(0, Text.size() - std::strlen("end\n")), machine());
  ASSERT_FALSE(NoEnd);
  EXPECT_NE(NoEnd.error().message().find("truncated"), std::string::npos);
}

TEST(ScheduleIORobustnessTest, BitFlipSweep) {
  CompiledStencil Original = compileById(PatternId::Cross5);
  const std::string Text = writeCompiledStencil(Original, machine());
  // Flip one bit at a sample of positions. Most flips must be rejected;
  // a few are benign (comment bytes, a '+' sign rendered identically,
  // whitespace) — but every outcome must be a clean parse or a clean
  // error, and an accepted parse must still verify, execute, and
  // re-serialize.
  int Rejected = 0, Accepted = 0;
  for (size_t Pos = 0; Pos < Text.size(); Pos += 3) {
    for (int Bit : {0, 3, 6}) {
      std::string Damaged = Text;
      Damaged[Pos] = static_cast<char>(Damaged[Pos] ^ (1 << Bit));
      Expected<CompiledStencil> Loaded =
          parseCompiledStencil(Damaged, machine());
      if (!Loaded) {
        ++Rejected;
        EXPECT_FALSE(Loaded.error().message().empty());
      } else {
        ++Accepted;
        // Whatever survived must be a fully verified plan.
        EXPECT_FALSE(Loaded->Widths.empty());
      }
    }
  }
  // The format is dense enough that damage overwhelmingly fails parse or
  // verification.
  EXPECT_GT(Rejected, Accepted * 3);
}

TEST(ScheduleIORobustnessTest, OversizedNumbersRejectedQuickly) {
  // Corrupt counts and sizes must be rejected up front, not passed to
  // allocators. (Width and ring totals are bounded by the register file;
  // out-of-range integers fail toInt.)
  const char *Header = "cmccode 1\n"
                       "machine registers 32\n"
                       "stencil result R sources 1 X boundary circular "
                       "circular\n"
                       "tap data 0 0 0 sign + coeff array C1\n";
  for (const char *Block : {
           "width 4000000 dedicated 0 unit 0\nsizes 1\nprologue 0\nend\n",
           "width 99999999999999999999 dedicated 0 unit 0\nsizes 1\n"
           "prologue 0\nend\n",
           "width 4 dedicated 0 unit 0\nsizes 2000000000\nprologue 0\nend\n",
           "width 4 dedicated 0 unit 0\nsizes 31 31\nprologue 0\nend\n",
           "width 4 dedicated 0 unit 0\nsizes 1\nprologue -5\nend\n",
           "width 4 dedicated 0 unit 0\nsizes 1\nprologue 2147483647\n"
           "end\n",
       }) {
    Expected<CompiledStencil> Loaded =
        parseCompiledStencil(std::string(Header) + Block, machine());
    EXPECT_FALSE(Loaded) << Block;
  }
}

TEST(ScheduleIORobustnessTest, WrongVersionAndHeaderDamage) {
  CompiledStencil Original = compileById(PatternId::Cross5);
  std::string Text = writeCompiledStencil(Original, machine());
  auto Replaced = [&](const std::string &From, const std::string &To) {
    std::string Out = Text;
    size_t Pos = Out.find(From);
    EXPECT_NE(Pos, std::string::npos);
    Out.replace(Pos, From.size(), To);
    return Out;
  };
  EXPECT_FALSE(parseCompiledStencil(Replaced("cmccode 1", "cmccode 2"),
                                    machine()));
  EXPECT_FALSE(parseCompiledStencil(Replaced("cmccode 1", "cmccode"),
                                    machine()));
  EXPECT_FALSE(parseCompiledStencil(
      Replaced("machine registers 32", "machine registers 33"), machine()));
  EXPECT_FALSE(parseCompiledStencil(
      Replaced("boundary circular circular", "boundary circular sideways"),
      machine()));
}

TEST(ScheduleIORobustnessTest, TrailingGarbageRejected) {
  CompiledStencil Original = compileById(PatternId::Cross5);
  std::string Text = writeCompiledStencil(Original, machine());
  EXPECT_TRUE(parseCompiledStencil(Text, machine()));
  EXPECT_FALSE(parseCompiledStencil(Text + "corrupt\n", machine()));
  EXPECT_FALSE(parseCompiledStencil(Text + Text, machine()));
  // Trailing blank lines and comments are still fine.
  EXPECT_TRUE(parseCompiledStencil(Text + "\n# trailer\n", machine()));
}

TEST(ScheduleIORobustnessTest, TapSignAndScalarCoefficientAreStrict) {
  StencilSpec Spec = makePattern(PatternId::Cross5);
  Spec.Taps[0].Coeff = Coefficient::scalar(0.5);
  ConvolutionCompiler CC(machine());
  Expected<CompiledStencil> Compiled = CC.compile(Spec);
  ASSERT_TRUE(Compiled) << Compiled.error().message();
  const std::string Text = writeCompiledStencil(*Compiled, machine());
  ASSERT_TRUE(parseCompiledStencil(Text, machine()));
  auto Replaced = [&](const std::string &From, const std::string &To) {
    std::string Out = Text;
    size_t Pos = Out.find(From);
    EXPECT_NE(Pos, std::string::npos) << From;
    if (Pos != std::string::npos)
      Out.replace(Pos, From.size(), To);
    return Out;
  };
  // A scalar that is not a whole finite number never loads as some
  // other value (strtod alone read "banana" as 0.0).
  for (const char *Bad : {"coeff scalar banana", "coeff scalar 0.5x",
                          "coeff scalar nan", "coeff scalar inf",
                          "coeff scalar -inf", "coeff scalar 1e999"}) {
    Expected<CompiledStencil> Loaded =
        parseCompiledStencil(Replaced("coeff scalar 0.5", Bad), machine());
    EXPECT_FALSE(Loaded) << Bad;
  }
  // The sign is '+' or '-', nothing else read as '+'.
  for (const char *Bad : {"sign plus", "sign *", "sign +-", "sign 1"}) {
    Expected<CompiledStencil> Loaded =
        parseCompiledStencil(Replaced("sign +", Bad), machine());
    EXPECT_FALSE(Loaded) << Bad;
  }
  // Both legal spellings still load, with the value they say.
  Expected<CompiledStencil> Negated = parseCompiledStencil(
      Replaced("sign + coeff scalar 0.5", "sign - coeff scalar 0.75"),
      machine());
  ASSERT_TRUE(Negated) << Negated.error().message();
  EXPECT_DOUBLE_EQ(Negated->Spec.Taps[0].Sign, -1.0);
  EXPECT_DOUBLE_EQ(Negated->Spec.Taps[0].Coeff.Value, 0.75);
}
