/**
 * @file
 * Tests for the three paper networks: structure, scale and footprint
 * shapes (Section V scales batch sizes until footprints exceed
 * 650 GB).
 */

#include <gtest/gtest.h>

#include <ostream>

#include "dnn/liveness.hh"
#include "dnn/networks.hh"
#include "dnn/planner.hh"

using namespace nvsim;
using namespace nvsim::dnn;

TEST(Networks, BuilderLookup)
{
    EXPECT_EQ(buildNetwork("tiny", 2).name(), "tiny_cnn");
    EXPECT_DEATH(buildNetwork("alexnet", 2), "unknown network");
}

TEST(Networks, DenseNetStructure)
{
    ComputeGraph g = buildDenseNet264(8);
    // 6+12+64+48 = 130 dense layers, each Concat+BN+Conv+BN+Conv (+2
    // ReLU), plus stem/transitions/head: > 900 forward kernels.
    EXPECT_GT(g.forwardOps(), 900u);
    unsigned concats = 0, convs = 0;
    for (const auto &op : g.schedule()) {
        concats += op.kind == OpKind::Concat;
        convs += op.kind == OpKind::Conv;
    }
    // One concat per dense layer plus one per block end.
    EXPECT_GE(concats, 130u);
    // Two convs per dense layer (1x1 + 3x3).
    EXPECT_GE(convs, 260u);
}

TEST(Networks, FootprintsScaleWithBatch)
{
    ComputeGraph g1 = buildDenseNet264(8);
    ComputeGraph g2 = buildDenseNet264(16);
    auto peak = [](const ComputeGraph &g) {
        auto live = computeLiveness(g);
        return peakLiveBytes(g, live);
    };
    Bytes p1 = peak(g1), p2 = peak(g2);
    // Activations dominate: near-linear scaling in batch.
    EXPECT_GT(p2, p1 * 19 / 10);
    EXPECT_LT(p2, p1 * 21 / 10);
}

/**
 * Paper-scale footprints: each network's training arena exceeds the
 * 192 GB DRAM cache by a wide margin at the batch sizes the benches
 * use (the paper scales footprints beyond 650 GB).
 */
struct NetCase
{
    const char *name;
    std::uint64_t batch;
    double min_gb, max_gb;
};

/* Names the case by network and batch; the default byte dump would
   include the address of the name string, which moves between runs. */
void
PrintTo(const NetCase &c, std::ostream *os)
{
    *os << c.name << " batch=" << c.batch;
}

class NetworkFootprint : public ::testing::TestWithParam<NetCase>
{
};

TEST_P(NetworkFootprint, PaperScaleArena)
{
    const NetCase &c = GetParam();
    ComputeGraph g = buildNetwork(c.name, c.batch);
    ArenaPlan plan = planArena(g, 1);
    double gb = static_cast<double>(plan.arenaBytes) / 1e9;
    EXPECT_GE(gb, c.min_gb) << c.name;
    EXPECT_LE(gb, c.max_gb) << c.name;
}

INSTANTIATE_TEST_SUITE_P(
    PaperNetworks, NetworkFootprint,
    ::testing::Values(NetCase{"densenet264", 2304, 600, 800},
                      NetCase{"resnet200", 2560, 550, 750},
                      NetCase{"inceptionv4", 4096, 550, 800}));

TEST(Networks, ResNetHasResidualAdds)
{
    ComputeGraph g = buildResNet200(4);
    unsigned adds = 0;
    for (const auto &op : g.schedule())
        adds += op.kind == OpKind::Add;
    EXPECT_EQ(adds, 3u + 24u + 36u + 3u);
}

TEST(Networks, InceptionHasParallelBranches)
{
    ComputeGraph g = buildInceptionV4(4);
    unsigned concats = 0;
    for (const auto &op : g.schedule())
        concats += op.kind == OpKind::Concat;
    // Stem (3) + 4 A + 1 RA + 7 B + 1 RB + 3 C = at least 19 concats.
    EXPECT_GE(concats, 19u);
    EXPECT_GT(g.totalFlops(), 0.0);
}

TEST(Networks, ShapesArePlausible)
{
    NetBuilder b("shapes");
    TensorId x = b.input(Shape{2, 3, 32, 32});
    EXPECT_EQ(b.shape(x).bytes(), 2u * 3 * 32 * 32 * 4);
    TensorId c = b.conv(x, 8, 3, 2);
    EXPECT_EQ(b.shape(c).c, 8u);
    EXPECT_EQ(b.shape(c).h, 16u);
    TensorId p = b.pool(c, 2, 2);
    EXPECT_EQ(b.shape(p).h, 8u);
    TensorId g = b.globalPool(p);
    EXPECT_EQ(b.shape(g).h, 1u);
    TensorId cc = b.concat({c, c});
    EXPECT_EQ(b.shape(cc).c, 16u);
}

TEST(Networks, Vgg19Structure)
{
    ComputeGraph g = buildVgg19(8);
    unsigned convs = 0, gemms = 0, pools = 0, concats = 0, bns = 0;
    for (const auto &op : g.schedule()) {
        if (isBackwardOp(op.kind))
            continue;
        convs += op.kind == OpKind::Conv;
        gemms += op.kind == OpKind::Gemm;
        pools += op.kind == OpKind::Pool;
        concats += op.kind == OpKind::Concat;
        bns += op.kind == OpKind::BatchNorm;
    }
    EXPECT_EQ(convs, 16u);
    EXPECT_EQ(gemms, 3u);
    EXPECT_EQ(pools, 5u);
    EXPECT_EQ(concats, 0u);  // no dense blocks, no inception branches
    EXPECT_EQ(bns, 0u);      // classic VGG has no batch norm
    g.validate();
}

TEST(Networks, Vgg19IsComputeDominatedVsDenseNet)
{
    // Per byte of activation traffic, VGG does far more FLOPs than
    // DenseNet — the reason the 2LM penalty hits DenseNet harder.
    ComputeGraph vgg = buildVgg19(8);
    ComputeGraph dense = buildDenseNet264(8);
    auto intensity = [](const ComputeGraph &g) {
        return g.totalFlops() /
               static_cast<double>(g.activationBytes());
    };
    EXPECT_GT(intensity(vgg), 2.0 * intensity(dense));
}
