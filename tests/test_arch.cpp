// Tests for the architecture model, MRRG, and the configuration
// encode/decode contract.
#include <algorithm>
#include <set>

#include <gtest/gtest.h>

#include "arch/arch.hpp"
#include "arch/context.hpp"
#include "arch/fault.hpp"
#include "arch/mrrg.hpp"
#include "support/rng.hpp"

namespace cgra {
namespace {

TEST(Arch, PresetsValidate) {
  for (const Architecture& arch :
       {Architecture::Small2x2(), Architecture::Adres4x4(),
        Architecture::Hetero4x4(), Architecture::Spatial4x4(),
        Architecture::Torus4x4(), Architecture::Big8x8(),
        Architecture::Mega16x16(), Architecture::VliwLike4()}) {
    EXPECT_TRUE(arch.Validate().ok()) << arch.params().name;
  }
}

TEST(Arch, MeshNeighbourCounts) {
  const Architecture arch = Architecture::Adres4x4();
  // Corner: 2 links out; centre: 4.
  EXPECT_EQ(arch.LinksOut(arch.CellAt(0, 0)).size(), 2u);
  EXPECT_EQ(arch.LinksOut(arch.CellAt(1, 1)).size(), 4u);
  // Readable = self + in-links.
  EXPECT_EQ(arch.ReadableFrom(arch.CellAt(1, 1)).size(), 5u);
}

TEST(Arch, TorusWrapsAround) {
  const Architecture arch = Architecture::Torus4x4();
  const int left = arch.CellAt(1, 0);
  const int right = arch.CellAt(1, 3);
  const auto& out = arch.LinksOut(left);
  EXPECT_NE(std::find(out.begin(), out.end(), right), out.end());
}

TEST(Arch, Hop2HasExpressLinks) {
  ArchParams p;
  p.rows = p.cols = 4;
  p.topology = Topology::kHop2;
  const Architecture arch{p};
  const auto& out = arch.LinksOut(arch.CellAt(0, 0));
  EXPECT_NE(std::find(out.begin(), out.end(), arch.CellAt(0, 2)), out.end());
}

TEST(Arch, HopDistanceSymmetricOnMesh) {
  const Architecture arch = Architecture::Adres4x4();
  EXPECT_EQ(arch.HopDistance(arch.CellAt(0, 0), arch.CellAt(3, 3)), 6);
  EXPECT_EQ(arch.HopDistance(arch.CellAt(3, 3), arch.CellAt(0, 0)), 6);
  EXPECT_EQ(arch.HopDistance(arch.CellAt(2, 2), arch.CellAt(2, 2)), 0);
}

TEST(Arch, HeterogeneousCapabilities) {
  const Architecture arch = Architecture::Hetero4x4();
  Op mul;
  mul.opcode = Opcode::kMul;
  mul.operands = {Operand{}, Operand{}};
  EXPECT_TRUE(arch.CanExecute(arch.CellAt(0, 0), mul));
  EXPECT_FALSE(arch.CanExecute(arch.CellAt(0, 1), mul)) << "odd column lacks mul";
  Op load;
  load.opcode = Opcode::kLoad;
  load.array = 0;
  load.operands = {Operand{}};
  EXPECT_TRUE(arch.CanExecute(arch.CellAt(0, 0), load));
  EXPECT_FALSE(arch.CanExecute(arch.CellAt(0, 1), load)) << "memory on column 0";
}

TEST(Arch, ConstantsAreFolded) {
  const Architecture arch = Architecture::Adres4x4();
  Op c;
  c.opcode = Opcode::kConst;
  EXPECT_TRUE(arch.IsFolded(Opcode::kConst));
  EXPECT_FALSE(arch.CanExecute(0, c));
}

TEST(Arch, IterIdxFoldingDependsOnHwLoop) {
  ArchParams p;
  p.has_hw_loop = true;
  const Architecture with{p};
  EXPECT_TRUE(with.IsFolded(Opcode::kIterIdx));
  p.has_hw_loop = false;
  const Architecture without{p};
  EXPECT_FALSE(without.IsFolded(Opcode::kIterIdx));
  Op iter;
  iter.opcode = Opcode::kIterIdx;
  EXPECT_TRUE(without.CanExecute(5, iter)) << "must be computed on a cell";
}

TEST(Arch, SpatialMaxIiIsOne) {
  EXPECT_EQ(Architecture::Spatial4x4().MaxIi(), 1);
  EXPECT_GT(Architecture::Adres4x4().MaxIi(), 1);
}

TEST(Arch, AsciiShowsDimensions) {
  const std::string s = Architecture::Hetero4x4().ToAscii();
  EXPECT_NE(s.find("4x4"), std::string::npos);
  EXPECT_NE(s.find("M0"), std::string::npos) << "memory bank tags rendered";
}

TEST(Arch, ValidateRejectsBadParams) {
  ArchParams p;
  p.rows = 0;
  EXPECT_FALSE(Architecture{p}.Validate().ok());
  ArchParams q;
  q.style = ExecutionStyle::kSpatial;
  q.context_depth = 4;
  EXPECT_FALSE(Architecture{q}.Validate().ok());
}

TEST(Mrrg, NodeCountsMesh) {
  const Architecture arch = Architecture::Adres4x4();
  const Mrrg mrrg(arch);
  // 16 FU + 16 HOLD + 16 RT.
  EXPECT_EQ(mrrg.num_nodes(), 48);
  EXPECT_EQ(mrrg.kind(mrrg.FuNode(3)), Mrrg::Kind::kFu);
  EXPECT_EQ(mrrg.kind(mrrg.HoldNode(3)), Mrrg::Kind::kHold);
  EXPECT_EQ(mrrg.kind(mrrg.RtNode(3)), Mrrg::Kind::kRt);
}

TEST(Mrrg, HoldSelfLoopHasUnitLatency) {
  const Mrrg mrrg(Architecture::Adres4x4());
  const int h = mrrg.HoldNode(0);
  bool found = false;
  for (const auto& link : mrrg.OutLinks(h)) {
    if (link.to == h) {
      EXPECT_EQ(link.latency, 1);
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(Mrrg, RoutedHopCostsOneCycle) {
  const Architecture arch = Architecture::Adres4x4();
  const Mrrg mrrg(arch);
  const int c0 = arch.CellAt(0, 0), c1 = arch.CellAt(0, 1);
  // HOLD(c0) -> RT(c1) latency 0; RT(c1) -> HOLD(c1) latency 1.
  bool into_rt = false, out_of_rt = false;
  for (const auto& link : mrrg.OutLinks(mrrg.HoldNode(c0))) {
    if (link.to == mrrg.RtNode(c1)) {
      EXPECT_EQ(link.latency, 0);
      into_rt = true;
    }
  }
  for (const auto& link : mrrg.OutLinks(mrrg.RtNode(c1))) {
    if (link.to == mrrg.HoldNode(c1)) {
      EXPECT_EQ(link.latency, 1);
      out_of_rt = true;
    }
  }
  EXPECT_TRUE(into_rt);
  EXPECT_TRUE(out_of_rt);
}

TEST(Mrrg, SharedRfSingleHold) {
  const Architecture arch = Architecture::VliwLike4();
  const Mrrg mrrg(arch);
  std::set<int> holds;
  for (int c = 0; c < arch.num_cells(); ++c) holds.insert(mrrg.HoldNode(c));
  EXPECT_EQ(holds.size(), 1u);
  EXPECT_EQ(mrrg.capacity(*holds.begin()), arch.params().rf_size);
}

TEST(Mrrg, ReadableHoldsMatchLinks) {
  const Architecture arch = Architecture::Adres4x4();
  const Mrrg mrrg(arch);
  const int centre = arch.CellAt(1, 1);
  EXPECT_EQ(mrrg.ReadableHolds(centre).size(), 5u);
}

// ---- SoA layout contract ----------------------------------------------------
// Every invariant docs/MRRG.md states about the dense-id blocks, the
// parallel columns, and the CSR adjacency, asserted over all preset
// fabrics (including the shared-RF one, whose HOLD block degenerates
// to a single node).

void CheckSoaLayout(const Architecture& arch) {
  const Mrrg mrrg(arch);
  const int n_nodes = mrrg.num_nodes();
  const int cells = arch.num_cells();

  // Block partition: FU ids first, then HOLD, then RT; contiguous,
  // disjoint, covering [0, num_nodes) exactly.
  EXPECT_EQ(mrrg.fu_begin(), 0);
  EXPECT_EQ(mrrg.fu_count(), cells);
  EXPECT_EQ(mrrg.hold_begin(), mrrg.fu_begin() + mrrg.fu_count());
  EXPECT_EQ(mrrg.rt_begin(), mrrg.hold_begin() + mrrg.hold_count());
  EXPECT_EQ(mrrg.rt_begin() + mrrg.rt_count(), n_nodes);

  // Dense-id stability: the FU node of cell c IS id c (identity
  // mapping — what keeps Mapping contents and SerializeMapping digests
  // stable across the SoA restructuring), and each per-cell lookup
  // lands inside its kind's block.
  for (int c = 0; c < cells; ++c) {
    EXPECT_EQ(mrrg.FuNode(c), c);
    const int h = mrrg.HoldNode(c);
    EXPECT_GE(h, mrrg.hold_begin());
    EXPECT_LT(h, mrrg.hold_begin() + mrrg.hold_count());
    const int rt = mrrg.RtNode(c);
    if (rt >= 0) {
      EXPECT_GE(rt, mrrg.rt_begin());
      EXPECT_LT(rt, mrrg.rt_begin() + mrrg.rt_count());
    }
  }

  // Kind column agrees with the block an id falls in, and the capacity
  // span agrees with the column accessor.
  ASSERT_EQ(mrrg.capacities().size(), static_cast<size_t>(n_nodes));
  int max_cap = 1;
  for (int n = 0; n < n_nodes; ++n) {
    const Mrrg::Kind expected = n < mrrg.hold_begin() ? Mrrg::Kind::kFu
                                : n < mrrg.rt_begin() ? Mrrg::Kind::kHold
                                                      : Mrrg::Kind::kRt;
    EXPECT_EQ(mrrg.kind(n), expected) << "node " << n;
    EXPECT_EQ(mrrg.capacities()[static_cast<size_t>(n)], mrrg.capacity(n))
        << "node " << n;
    EXPECT_GE(mrrg.capacity(n), 0) << "node " << n;
    max_cap = std::max(max_cap, mrrg.capacity(n));
  }
  EXPECT_EQ(mrrg.max_capacity(), max_cap);

  // CSR adjacency: per-node spans are contiguous, in id order, and
  // tile the link array exactly (no gap, no overlap).
  std::size_t total = 0;
  const Mrrg::Link* expected_begin = mrrg.OutLinks(0).data();
  for (int n = 0; n < n_nodes; ++n) {
    const auto links = mrrg.OutLinks(n);
    EXPECT_EQ(links.data(), expected_begin) << "node " << n;
    expected_begin = links.data() + links.size();
    total += links.size();
    for (const Mrrg::Link& l : links) {
      EXPECT_GE(l.to, 0);
      EXPECT_LT(l.to, n_nodes);
      EXPECT_GE(l.latency, 0);
      // FU nodes start nets rather than route them: no out-links.
      EXPECT_NE(mrrg.kind(n), Mrrg::Kind::kFu);
    }
  }
  EXPECT_EQ(static_cast<std::size_t>(mrrg.num_links()), total);

  // Readable-hold CSR: every entry is a HOLD id, deduplicated, and
  // includes the cell's own hold.
  for (int c = 0; c < cells; ++c) {
    const auto holds = mrrg.ReadableHolds(c);
    std::set<int> seen;
    bool own = false;
    for (int h : holds) {
      EXPECT_EQ(mrrg.kind(h), Mrrg::Kind::kHold) << "cell " << c;
      EXPECT_TRUE(seen.insert(h).second) << "cell " << c << " dup " << h;
      own |= h == mrrg.HoldNode(c);
    }
    EXPECT_TRUE(own) << "cell " << c;
  }
}

TEST(MrrgSoa, LayoutInvariantsAdres4x4) {
  CheckSoaLayout(Architecture::Adres4x4());
}

TEST(MrrgSoa, LayoutInvariantsHetero4x4) {
  CheckSoaLayout(Architecture::Hetero4x4());
}

TEST(MrrgSoa, LayoutInvariantsBig8x8) { CheckSoaLayout(Architecture::Big8x8()); }

TEST(MrrgSoa, LayoutInvariantsSharedRf) {
  CheckSoaLayout(Architecture::VliwLike4());
  // The shared RF collapses the HOLD block to one node.
  const Mrrg mrrg(Architecture::VliwLike4());
  EXPECT_EQ(mrrg.hold_count(), 1);
  EXPECT_EQ(mrrg.cell(mrrg.hold_begin()), -1);  // shared: owned by no cell
}

TEST(MrrgSoa, SlotUsableReadsFaultColumns) {
  FaultModel fm;
  fm.KillContextSlot(/*cell=*/7, /*slot=*/2);
  const Architecture arch = Architecture::Adres4x4().WithFaults(fm);
  const Mrrg mrrg(arch);
  // FU and RT of the faulted cell lose slot 2; HOLD never gates.
  EXPECT_FALSE(mrrg.SlotUsable(mrrg.FuNode(7), 2));
  EXPECT_TRUE(mrrg.SlotUsable(mrrg.FuNode(7), 1));
  EXPECT_FALSE(mrrg.SlotUsable(mrrg.RtNode(7), 2));
  EXPECT_TRUE(mrrg.SlotUsable(mrrg.HoldNode(7), 2));
  EXPECT_TRUE(mrrg.SlotUsable(mrrg.FuNode(6), 2));
}

TEST(Context, LayoutBitsArePositive) {
  const Architecture arch = Architecture::Adres4x4();
  const ContextLayout l = MakeContextLayout(arch);
  EXPECT_GE(l.opcode_bits, 5);
  EXPECT_GT(l.BitsPerFu(), 0);
  EXPECT_GT(FrameBitCount(arch), 16 * l.BitsPerFu() - 1);
}

ConfigImage MakeRandomImage(const Architecture& arch, Rng& rng, int ii) {
  ConfigImage image;
  image.ii = ii;
  image.frames.resize(static_cast<size_t>(ii));
  for (auto& frame : image.frames) {
    frame.cells.resize(static_cast<size_t>(arch.num_cells()));
    for (int c = 0; c < arch.num_cells(); ++c) {
      CellContext& cell = frame.cells[static_cast<size_t>(c)];
      FuConfig& fu = cell.fu;
      fu.valid = rng.NextBool();
      fu.opcode = Opcode::kAdd;
      fu.imm = static_cast<std::int32_t>(rng.NextInt(-1000, 1000));
      fu.stage = rng.NextInt(0, 3);
      fu.write_enable = rng.NextBool();
      fu.dest_reg = rng.NextInt(0, arch.HoldCapacity() - 1);
      fu.pred_sense = rng.NextBool();
      fu.io_slot = rng.NextInt(0, 5);
      for (auto& o : fu.operand) {
        o.src = rng.NextBool() ? OperandSel::Src::kReg : OperandSel::Src::kImm;
        o.read_idx = rng.NextInt(
            0, static_cast<int>(arch.ReadableFrom(c).size()) - 1);
        o.reg = rng.NextInt(0, arch.HoldCapacity() - 1);
      }
      cell.rt.resize(static_cast<size_t>(arch.params().route_channels));
      for (auto& rt : cell.rt) {
        rt.valid = rng.NextBool();
        rt.read_idx = rng.NextInt(
            0, static_cast<int>(arch.ReadableFrom(c).size()) - 1);
        rt.src_reg = rng.NextInt(0, arch.HoldCapacity() - 1);
        rt.dest_reg = rng.NextInt(0, arch.HoldCapacity() - 1);
        rt.stage = rng.NextInt(0, 3);
      }
    }
  }
  return image;
}

TEST(Context, EncodeDecodeRoundTrip) {
  const Architecture arch = Architecture::Adres4x4();
  Rng rng(1234);
  for (int trial = 0; trial < 20; ++trial) {
    const ConfigImage image = MakeRandomImage(arch, rng, rng.NextInt(1, 4));
    const auto bits = EncodeConfig(arch, image);
    const auto decoded = DecodeConfig(arch, bits);
    ASSERT_TRUE(decoded.ok()) << decoded.error().message;
    EXPECT_TRUE(*decoded == image) << "trial " << trial;
  }
}

TEST(Context, TruncatedBitstreamRejected) {
  const Architecture arch = Architecture::Small2x2();
  Rng rng(5);
  auto bits = EncodeConfig(arch, MakeRandomImage(arch, rng, 2));
  bits.resize(bits.size() / 2);
  EXPECT_FALSE(DecodeConfig(arch, bits).ok());
}

TEST(Context, BadIiRejected) {
  const Architecture arch = Architecture::Small2x2();
  std::vector<std::uint8_t> bits{0};  // II = 0
  EXPECT_FALSE(DecodeConfig(arch, bits).ok());
}

TEST(Context, RoundTripAcrossArchitectures) {
  Rng rng(777);
  for (const Architecture& arch :
       {Architecture::Small2x2(), Architecture::Hetero4x4(),
        Architecture::VliwLike4()}) {
    const ConfigImage image = MakeRandomImage(arch, rng, 2);
    const auto decoded = DecodeConfig(arch, EncodeConfig(arch, image));
    ASSERT_TRUE(decoded.ok()) << arch.params().name;
    EXPECT_TRUE(*decoded == image) << arch.params().name;
  }
}

}  // namespace
}  // namespace cgra
