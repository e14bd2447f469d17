//===- core/ScheduleIO.cpp ------------------------------------*- C++ -*-===//
//
// Part of the CMCC project (PLDI 1991 convolution-compiler reproduction).
//
//===----------------------------------------------------------------------===//

#include "core/ScheduleIO.h"
#include "core/RingBufferPlan.h"
#include "core/Verifier.h"
#include "support/Assert.h"
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <sstream>

using namespace cmcc;

//===----------------------------------------------------------------------===//
// Writer
//===----------------------------------------------------------------------===//

static void writeOp(std::string &Out, const DynamicPart &Op) {
  char Buffer[96];
  switch (Op.TheKind) {
  case DynamicPart::Kind::Load:
    std::snprintf(Buffer, sizeof(Buffer), "L %d %d %d %d\n", Op.DestReg,
                  Op.DataDy, Op.DataDx, Op.DataSource);
    break;
  case DynamicPart::Kind::Madd:
    std::snprintf(Buffer, sizeof(Buffer), "M %d %d %d %d %d %d %d %d\n",
                  Op.MulReg, Op.DestReg, Op.AddReg, Op.ThreadId,
                  Op.TapIndex, Op.ResultIndex, Op.ChainStart ? 1 : 0,
                  Op.ChainEnd ? 1 : 0);
    break;
  case DynamicPart::Kind::Store:
    std::snprintf(Buffer, sizeof(Buffer), "S %d %d\n", Op.MulReg,
                  Op.ResultIndex);
    break;
  case DynamicPart::Kind::Filler:
    std::snprintf(Buffer, sizeof(Buffer), "F %d\n", Op.DestReg);
    break;
  }
  Out += Buffer;
}

std::string cmcc::writeCompiledStencil(const CompiledStencil &Compiled,
                                       const MachineConfig &Config) {
  const StencilSpec &Spec = Compiled.Spec;
  std::string Out;
  Out += "cmccode 1\n";
  Out += "# " + Spec.str() + "\n";
  Out += "machine registers " + std::to_string(Config.NumRegisters) + "\n";

  Out += "stencil result " + Spec.Result + " sources " +
         std::to_string(Spec.sourceCount());
  for (int S = 0; S != Spec.sourceCount(); ++S)
    Out += " " + Spec.sourceName(S);
  Out += " boundary ";
  Out += Spec.BoundaryDim1 == BoundaryKind::Circular ? "circular" : "zero";
  Out += " ";
  Out += Spec.BoundaryDim2 == BoundaryKind::Circular ? "circular" : "zero";
  Out += "\n";

  for (const Tap &T : Spec.Taps) {
    Out += "tap ";
    if (T.HasData)
      Out += "data " + std::to_string(T.SourceIndex) + " " +
             std::to_string(T.At.Dy) + " " + std::to_string(T.At.Dx);
    else
      Out += "bare";
    Out += std::string(" sign ") + (T.Sign < 0 ? "-" : "+");
    if (T.Coeff.isArray()) {
      Out += " coeff array " + T.Coeff.Name;
    } else {
      char Buffer[48];
      std::snprintf(Buffer, sizeof(Buffer), " coeff scalar %.17g",
                    T.Coeff.Value);
      Out += Buffer;
    }
    Out += "\n";
  }

  for (const WidthSchedule &W : Compiled.Widths) {
    Out += "width " + std::to_string(W.Width) + " dedicated " +
           std::to_string(W.DedicatedAccumulators ? 1 : 0) + " unit " +
           std::to_string(W.Regs.hasUnitRegister() ? 1 : 0) + "\n";
    Out += "sizes";
    for (int S : W.Regs.plan().Sizes)
      Out += " " + std::to_string(S);
    Out += "\n";
    Out += "prologue " + std::to_string(W.Prologue.size()) + "\n";
    for (const DynamicPart &Op : W.Prologue)
      writeOp(Out, Op);
    for (size_t P = 0; P != W.Phases.size(); ++P) {
      Out += "phase " + std::to_string(P) + " " +
             std::to_string(W.Phases[P].size()) + "\n";
      for (const DynamicPart &Op : W.Phases[P])
        writeOp(Out, Op);
    }
  }
  Out += "end\n";
  return Out;
}

//===----------------------------------------------------------------------===//
// Parser
//===----------------------------------------------------------------------===//

namespace {

/// Line-based reader with one-token lookahead convenience.
class Reader {
public:
  explicit Reader(const std::string &Text) : Stream(Text) {}

  /// Reads the next non-empty, non-comment line into word tokens.
  /// Returns false at end of input.
  bool nextLine(std::vector<std::string> &Words) {
    std::string Line;
    while (std::getline(Stream, Line)) {
      ++LineNo;
      size_t Hash = Line.find('#');
      if (Hash != std::string::npos)
        Line.resize(Hash);
      Words.clear();
      std::istringstream WordStream(Line);
      std::string W;
      while (WordStream >> W)
        Words.push_back(W);
      if (!Words.empty())
        return true;
    }
    return false;
  }

  Error fail(const std::string &Message) const {
    return makeError("cmccode line " + std::to_string(LineNo) + ": " +
                     Message);
  }

private:
  std::istringstream Stream;
  int LineNo = 0;
};

bool toInt(const std::string &W, int *Out) {
  char *End = nullptr;
  errno = 0;
  long V = std::strtol(W.c_str(), &End, 10);
  if (End == W.c_str() || *End != '\0' || errno == ERANGE ||
      V < std::numeric_limits<int>::min() || V > std::numeric_limits<int>::max())
    return false;
  *Out = static_cast<int>(V);
  return true;
}

/// Parses one op line already split into words.
bool parseOp(const std::vector<std::string> &W, DynamicPart *Out) {
  auto Int = [&](size_t I, int *V) { return I < W.size() && toInt(W[I], V); };
  if (W[0] == "L" && W.size() == 5) {
    int Reg, Dy, Dx, Src;
    if (!Int(1, &Reg) || !Int(2, &Dy) || !Int(3, &Dx) || !Int(4, &Src))
      return false;
    *Out = DynamicPart::load(Reg, Dy, Dx, Src);
    return true;
  }
  if (W[0] == "M" && W.size() == 9) {
    int Mul, Dest, Add, Thread, Tap, Result, Start, End;
    if (!Int(1, &Mul) || !Int(2, &Dest) || !Int(3, &Add) ||
        !Int(4, &Thread) || !Int(5, &Tap) || !Int(6, &Result) ||
        !Int(7, &Start) || !Int(8, &End))
      return false;
    *Out = DynamicPart::madd(Mul, Dest, Add, Thread, Tap, Result,
                             Start != 0, End != 0);
    return true;
  }
  if (W[0] == "S" && W.size() == 3) {
    int Reg, Result;
    if (!Int(1, &Reg) || !Int(2, &Result))
      return false;
    *Out = DynamicPart::store(Reg, Result);
    return true;
  }
  if (W[0] == "F" && W.size() == 2) {
    int Zero;
    if (!Int(1, &Zero))
      return false;
    *Out = DynamicPart::filler(Zero);
    return true;
  }
  return false;
}

} // namespace

Expected<CompiledStencil>
cmcc::parseCompiledStencil(const std::string &Text,
                           const MachineConfig &Config) {
  Reader R(Text);
  std::vector<std::string> W;

  if (!R.nextLine(W) || W.size() != 2 || W[0] != "cmccode" || W[1] != "1")
    return R.fail("expected header 'cmccode 1'");

  if (!R.nextLine(W) || W.size() != 3 || W[0] != "machine" ||
      W[1] != "registers")
    return R.fail("expected 'machine registers N'");
  int Registers = 0;
  if (!toInt(W[2], &Registers) || Registers != Config.NumRegisters)
    return R.fail("schedule was compiled for a machine with " + W[2] +
                  " registers, not " +
                  std::to_string(Config.NumRegisters));

  // stencil result R sources N name... boundary b1 b2
  if (!R.nextLine(W) || W.size() < 7 || W[0] != "stencil" ||
      W[1] != "result" || W[3] != "sources")
    return R.fail("expected the 'stencil' line");
  CompiledStencil Out;
  Out.Spec.Result = W[2];
  int Sources = 0;
  if (!toInt(W[4], &Sources) || Sources < 0 ||
      W.size() != static_cast<size_t>(5 + Sources + 3))
    return R.fail("malformed source list");
  for (int S = 0; S != Sources; ++S) {
    if (S == 0)
      Out.Spec.Source = W[5 + S];
    else
      Out.Spec.ExtraSources.push_back(W[5 + S]);
  }
  size_t B = 5 + Sources;
  if (W[B] != "boundary")
    return R.fail("expected 'boundary'");
  auto ParseBoundary = [&](const std::string &Word,
                           BoundaryKind *Kind) -> bool {
    if (Word == "circular")
      *Kind = BoundaryKind::Circular;
    else if (Word == "zero")
      *Kind = BoundaryKind::Zero;
    else
      return false;
    return true;
  };
  if (!ParseBoundary(W[B + 1], &Out.Spec.BoundaryDim1) ||
      !ParseBoundary(W[B + 2], &Out.Spec.BoundaryDim2))
    return R.fail("bad boundary kind");

  // Taps, then width blocks, then "end".
  bool SawEnd = false;
  while (R.nextLine(W)) {
    if (W[0] == "end") {
      SawEnd = true;
      break;
    }
    if (W[0] == "tap") {
      Tap T;
      size_t I = 1;
      if (I < W.size() && W[I] == "data") {
        if (W.size() < I + 4)
          return R.fail("malformed data tap");
        int Src, Dy, Dx;
        if (!toInt(W[I + 1], &Src) || !toInt(W[I + 2], &Dy) ||
            !toInt(W[I + 3], &Dx))
          return R.fail("malformed data tap numbers");
        T.HasData = true;
        T.SourceIndex = Src;
        T.At = {Dy, Dx};
        I += 4;
      } else if (I < W.size() && W[I] == "bare") {
        T.HasData = false;
        I += 1;
      } else {
        return R.fail("tap must be 'data' or 'bare'");
      }
      if (I + 1 >= W.size() || W[I] != "sign")
        return R.fail("expected tap sign");
      if (W[I + 1] != "+" && W[I + 1] != "-")
        return R.fail("tap sign must be '+' or '-'");
      T.Sign = W[I + 1] == "-" ? -1.0 : 1.0;
      I += 2;
      if (I + 2 > W.size() || W[I] != "coeff")
        return R.fail("expected tap coefficient");
      if (W[I + 1] == "array") {
        if (I + 3 > W.size())
          return R.fail("missing coefficient array name");
        T.Coeff = Coefficient::array(W[I + 2]);
      } else if (W[I + 1] == "scalar") {
        if (I + 3 > W.size())
          return R.fail("missing scalar coefficient value");
        // Overflow parses as an infinity, which isfinite rejects.
        char *End = nullptr;
        double Value = std::strtod(W[I + 2].c_str(), &End);
        if (End == W[I + 2].c_str() || *End != '\0' || !std::isfinite(Value))
          return R.fail("scalar coefficient must be a finite number");
        T.Coeff = Coefficient::scalar(Value);
      } else {
        return R.fail("coefficient must be 'array' or 'scalar'");
      }
      Out.Spec.Taps.push_back(std::move(T));
      continue;
    }
    if (W[0] == "width") {
      if (Error E = Out.Spec.validate())
        return makeError("invalid stencil in cmccode: " + E.message());
      if (W.size() != 6 || W[2] != "dedicated" || W[4] != "unit")
        return R.fail("malformed width line");
      int Width = 0, Dedicated = 0, Unit = 0;
      if (!toInt(W[1], &Width) || !toInt(W[3], &Dedicated) ||
          !toInt(W[5], &Unit) || Width < 1)
        return R.fail("malformed width numbers");
      // A plan wider than the register file cannot have come from the
      // compiler; reject before Multistencil::build sizes anything to it.
      if (Width > Config.NumRegisters)
        return R.fail("width exceeds the register file");
      if ((Unit != 0) != Out.Spec.needsUnitRegister())
        return R.fail("unit-register flag disagrees with the stencil");

      // Ring sizes.
      if (!R.nextLine(W) || W.empty() || W[0] != "sizes")
        return R.fail("expected 'sizes'");
      Multistencil MS = Multistencil::build(Out.Spec, Width);
      if (static_cast<int>(W.size()) - 1 != MS.columnCount())
        return R.fail("ring-size count disagrees with the multistencil");
      RingBufferPlan Plan;
      long Lcm = 1;
      for (size_t I = 1; I != W.size(); ++I) {
        int S = 0;
        if (!toInt(W[I], &S) || S < 1)
          return R.fail("bad ring size");
        if (S < MS.column(static_cast<int>(I - 1)).extent())
          return R.fail("ring size below the column extent");
        Plan.Sizes.push_back(S);
        Plan.DataRegisters += S;
        // Ring buffers live in registers, so their total bounds both the
        // allocation and the unroll factor (the LCM of numbers summing to
        // at most NumRegisters is small). Oversized corrupt values would
        // otherwise drive giant allocations below.
        if (Plan.DataRegisters > Config.NumRegisters)
          return R.fail("ring sizes exceed the register file");
        Lcm = leastCommonMultiple(Lcm, S);
      }
      Plan.UnrollFactor = static_cast<int>(Lcm);

      RegisterAllocation Regs(MS, Plan, Unit != 0);
      WidthSchedule Sched(std::move(MS), std::move(Regs));
      Sched.Width = Width;
      Sched.DedicatedAccumulators = Dedicated != 0;

      // Prologue ops.
      if (!R.nextLine(W) || W.size() != 2 || W[0] != "prologue")
        return R.fail("expected 'prologue N'");
      int PrologueOps = 0;
      if (!toInt(W[1], &PrologueOps) || PrologueOps < 0)
        return R.fail("bad prologue count");
      for (int I = 0; I != PrologueOps; ++I) {
        DynamicPart Op;
        if (!R.nextLine(W) || !parseOp(W, &Op))
          return R.fail("bad prologue op");
        Sched.Prologue.push_back(Op);
      }

      // Phases.
      for (int P = 0; P != Plan.UnrollFactor; ++P) {
        if (!R.nextLine(W) || W.size() != 3 || W[0] != "phase")
          return R.fail("expected 'phase " + std::to_string(P) + " N'");
        int Index = 0, Ops = 0;
        if (!toInt(W[1], &Index) || Index != P || !toInt(W[2], &Ops) ||
            Ops < 0)
          return R.fail("bad phase header");
        LineSchedule Line;
        for (int I = 0; I != Ops; ++I) {
          DynamicPart Op;
          if (!R.nextLine(W) || !parseOp(W, &Op))
            return R.fail("bad phase op");
          Line.push_back(Op);
        }
        Sched.Phases.push_back(std::move(Line));
      }

      // Loaded code is untrusted until proven: re-verify against the
      // pipeline model.
      if (Error E = verifySchedule(Sched, Out.Spec, Config))
        return makeError("loaded width-" + std::to_string(Width) +
                         " schedule failed verification: " + E.message());
      Out.Widths.push_back(std::move(Sched));
      continue;
    }
    return R.fail("unexpected line '" + W[0] + "'");
  }

  if (!SawEnd)
    return makeError("cmccode input is truncated (missing 'end')");
  if (R.nextLine(W))
    return R.fail("trailing content after 'end'");
  if (Error E = Out.Spec.validate())
    return makeError("invalid stencil in cmccode: " + E.message());
  if (Out.Widths.empty())
    return makeError("cmccode contains no width schedules");
  return Out;
}
