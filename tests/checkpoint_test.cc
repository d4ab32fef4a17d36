#include "nn/checkpoint.h"

#include <cstdint>
#include <cstring>
#include <fstream>

#include <gtest/gtest.h>

#include "core/embsr_model.h"
#include "nn/layers.h"
#include "robust/failpoint.h"
#include "util/check.h"
#include "util/crc32.h"
#include "util/fs_util.h"

namespace embsr {
namespace {

std::string TempPath(const char* name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

std::string ReadAll(const std::string& path) {
  auto r = ReadFileToString(path);
  EMBSR_CHECK_OK(r.status());
  return std::move(r).value();
}

void WriteAll(const std::string& path, const std::string& data) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(data.data(), static_cast<std::streamsize>(data.size()));
}

template <typename T>
void AppendPod(std::string* out, const T& value) {
  out->append(reinterpret_cast<const char*>(&value), sizeof(T));
}

template <typename T>
T PodAt(const std::string& bytes, size_t offset) {
  T value{};
  std::memcpy(&value, bytes.data() + offset, sizeof(T));
  return value;
}

/// `bytes` with the POD at `offset` rewritten and the CRC trailer resealed,
/// so only the reader's bounds checks stand between the value and an
/// allocation.
template <typename T>
std::string Resealed(std::string bytes, size_t offset, T value) {
  std::memcpy(bytes.data() + offset, &value, sizeof(T));
  const size_t body = bytes.size() - sizeof(uint32_t);
  const uint32_t crc = Crc32(bytes.data(), body);
  std::memcpy(bytes.data() + body, &crc, sizeof(crc));
  return bytes;
}

/// Hand-writes a format-v1 checkpoint (no flags word, no CRC) for `module`,
/// byte-identical to what the pre-v2 code produced. No reader accepts v1.
std::string SerializeV1(const nn::Module& module) {
  std::string buf;
  buf.append("EMBSRCKP", 8);
  AppendPod(&buf, static_cast<uint32_t>(1));  // version
  const auto params = module.NamedParameters();
  AppendPod(&buf, static_cast<uint32_t>(params.size()));
  for (const auto& np : params) {
    AppendPod(&buf, static_cast<uint32_t>(np.name.size()));
    buf.append(np.name);
    const Tensor& t = np.variable.value();
    AppendPod(&buf, static_cast<uint32_t>(t.ndim()));
    for (int64_t d : t.shape()) AppendPod(&buf, d);
    buf.append(reinterpret_cast<const char*>(t.data()),
               sizeof(float) * static_cast<size_t>(t.size()));
  }
  return buf;
}

TEST(CheckpointTest, RoundTripRestoresExactWeights) {
  Rng rng(1);
  nn::FeedForward a(8, 16, &rng);
  nn::FeedForward b(8, 16, &rng);  // different init
  const std::string path = TempPath("ffn.ckpt");
  ASSERT_TRUE(nn::SaveCheckpoint(a, path).ok());
  ASSERT_TRUE(nn::LoadCheckpoint(path, &b).ok());

  const auto pa = a.NamedParameters();
  const auto pb = b.NamedParameters();
  ASSERT_EQ(pa.size(), pb.size());
  for (size_t i = 0; i < pa.size(); ++i) {
    EXPECT_TRUE(pa[i].variable.value().AllClose(pb[i].variable.value(), 0.0f))
        << pa[i].name;
  }
}

TEST(CheckpointTest, FullEmbsrModelRoundTripPreservesScores) {
  TrainConfig cfg;
  cfg.embedding_dim = 16;
  EmbsrModel a("EMBSR", 30, 10, cfg);
  TrainConfig cfg2 = cfg;
  cfg2.seed = 12345;  // different init
  EmbsrModel b("EMBSR", 30, 10, cfg2);
  a.SetTraining(false);
  b.SetTraining(false);

  Example ex;
  ex.macro_items = {1, 2, 3};
  ex.macro_ops = {{0}, {0, 4}, {0}};
  ex.flat_items = {1, 2, 2, 3};
  ex.flat_ops = {0, 0, 4, 0};
  ex.target = 5;

  ASSERT_NE(a.ScoreAll(ex), b.ScoreAll(ex));
  const std::string path = TempPath("embsr.ckpt");
  ASSERT_TRUE(nn::SaveCheckpoint(a, path).ok());
  ASSERT_TRUE(nn::LoadCheckpoint(path, &b).ok());
  EXPECT_EQ(a.ScoreAll(ex), b.ScoreAll(ex));
}

TEST(CheckpointTest, MissingFileIsNotFound) {
  Rng rng(2);
  nn::Linear lin(2, 2, &rng);
  Status s = nn::LoadCheckpoint(TempPath("nope.ckpt"), &lin);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
}

TEST(CheckpointTest, RejectsArchitectureMismatch) {
  Rng rng(3);
  nn::Linear small(2, 2, &rng);
  nn::Linear big(4, 4, &rng);
  const std::string path = TempPath("mismatch.ckpt");
  ASSERT_TRUE(nn::SaveCheckpoint(small, path).ok());
  Status s = nn::LoadCheckpoint(path, &big);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kFailedPrecondition);
}

TEST(CheckpointTest, RejectsDifferentModuleShape) {
  Rng rng(4);
  nn::Linear lin(3, 3, &rng);
  nn::FeedForward ffn(3, 3, &rng);  // more parameters
  const std::string path = TempPath("count.ckpt");
  ASSERT_TRUE(nn::SaveCheckpoint(lin, path).ok());
  EXPECT_FALSE(nn::LoadCheckpoint(path, &ffn).ok());
}

TEST(CheckpointTest, RejectsGarbageFile) {
  Rng rng(5);
  nn::Linear lin(2, 2, &rng);
  const std::string path = TempPath("garbage.ckpt");
  std::ofstream(path) << "this is not a checkpoint";
  Status s = nn::LoadCheckpoint(path, &lin);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
}

TEST(CheckpointTest, RejectsTruncatedFile) {
  Rng rng(6);
  nn::FeedForward ffn(8, 8, &rng);
  const std::string path = TempPath("truncated.ckpt");
  ASSERT_TRUE(nn::SaveCheckpoint(ffn, path).ok());
  // Chop the file in half.
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  const auto size = in.tellg();
  in.seekg(0);
  std::string data(static_cast<size_t>(size) / 2, '\0');
  in.read(data.data(), static_cast<std::streamsize>(data.size()));
  in.close();
  std::ofstream(path, std::ios::binary | std::ios::trunc) << data;
  EXPECT_FALSE(nn::LoadCheckpoint(path, &ffn).ok());
}

TEST(CheckpointTest, NullModuleIsInvalidArgument) {
  Status s = nn::LoadCheckpoint(TempPath("x.ckpt"), nullptr);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
}

TEST(CheckpointTest, V1FileIsRejectedAsUnsupportedVersion) {
  Rng rng(7);
  nn::Linear a(3, 2, &rng);
  nn::Linear b(3, 2, &rng);  // different init
  const std::vector<float> before = b.Parameters()[0].value().vec();
  const std::string path = TempPath("legacy.ckpt");
  WriteAll(path, SerializeV1(a));
  const Status s = nn::LoadCheckpoint(path, &b);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(s.message().find("unsupported checkpoint version 1"),
            std::string::npos)
      << s.ToString();
  EXPECT_EQ(b.Parameters()[0].value().vec(), before);
}

TEST(CheckpointTest, TrainStateRoundTripsExactly) {
  Rng rng(9);
  nn::Linear a(4, 3, &rng);
  nn::Linear b(4, 3, &rng);

  nn::TrainState in;
  in.epoch = 5;
  in.best_mrr = 0.4375;
  in.best_params.emplace_back(std::vector<int64_t>{2, 3}, 1.5f);
  Rng stream(123);
  for (int i = 0; i < 17; ++i) stream.Uniform();  // advance to a random point
  stream.Normal();  // populate the Box-Muller cache
  in.rng = stream.SaveState();
  in.opt_scalars = {3.0, 0.125};
  in.opt_slots.emplace_back(std::vector<int64_t>{4, 3}, 0.25f);
  in.opt_slots.emplace_back(std::vector<int64_t>{3}, -2.0f);

  const std::string path = TempPath("state.ckpt");
  ASSERT_TRUE(nn::SaveCheckpoint(a, in, path).ok());
  nn::TrainState out;
  ASSERT_TRUE(nn::LoadCheckpoint(path, &b, &out).ok());

  EXPECT_EQ(out.epoch, in.epoch);
  EXPECT_EQ(out.best_mrr, in.best_mrr);
  ASSERT_EQ(out.best_params.size(), 1u);
  EXPECT_TRUE(out.best_params[0].AllClose(in.best_params[0], 0.0f));
  for (int i = 0; i < 4; ++i) EXPECT_EQ(out.rng.s[i], in.rng.s[i]);
  EXPECT_EQ(out.rng.has_cached_normal, in.rng.has_cached_normal);
  EXPECT_EQ(out.rng.cached_normal, in.rng.cached_normal);
  EXPECT_EQ(out.opt_scalars, in.opt_scalars);
  ASSERT_EQ(out.opt_slots.size(), 2u);
  EXPECT_TRUE(out.opt_slots[0].AllClose(in.opt_slots[0], 0.0f));
  EXPECT_TRUE(out.opt_slots[1].AllClose(in.opt_slots[1], 0.0f));

  // The restored stream continues exactly where the saved one left off.
  Rng resumed(1);
  resumed.RestoreState(out.rng);
  EXPECT_EQ(stream.Uniform(), resumed.Uniform());
  EXPECT_EQ(stream.Normal(), resumed.Normal());
}

TEST(CheckpointFuzzTest, TruncationAtEveryLengthIsRejected) {
  Rng rng(10);
  nn::Linear lin(2, 2, &rng);
  const std::string path = TempPath("fuzz_trunc.ckpt");
  ASSERT_TRUE(nn::SaveCheckpoint(lin, path).ok());
  const std::string full = ReadAll(path);
  ASSERT_GT(full.size(), 16u);

  const std::string victim = TempPath("fuzz_trunc_victim.ckpt");
  for (size_t len = 0; len < full.size(); ++len) {
    WriteAll(victim, full.substr(0, len));
    Status s = nn::LoadCheckpoint(victim, &lin);
    EXPECT_FALSE(s.ok()) << "truncation to " << len << " bytes was accepted";
  }
}

TEST(CheckpointFuzzTest, EverySingleBitFlipIsDetected) {
  Rng rng(11);
  nn::Linear lin(2, 2, &rng);
  const std::string path = TempPath("fuzz_flip.ckpt");
  ASSERT_TRUE(nn::SaveCheckpoint(lin, path).ok());
  const std::string full = ReadAll(path);

  // CRC-32 detects every single-bit error; flips in the magic/version
  // header fail their own checks first. Either way no flip may load.
  const std::string victim = TempPath("fuzz_flip_victim.ckpt");
  for (size_t byte = 0; byte < full.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string mutated = full;
      mutated[byte] = static_cast<char>(mutated[byte] ^ (1 << bit));
      WriteAll(victim, mutated);
      Status s = nn::LoadCheckpoint(victim, &lin);
      EXPECT_FALSE(s.ok()) << "flip of byte " << byte << " bit " << bit
                           << " was accepted";
    }
  }
}

TEST(CheckpointFuzzTest, ResealedCountsAndDimsPastTheFileAreRejected) {
  Rng rng(14);
  nn::Linear lin(2, 2, &rng);
  nn::TrainState st;
  st.best_params.emplace_back(std::vector<int64_t>{2, 3}, 1.5f);
  st.opt_scalars = {3.0};
  st.opt_slots.emplace_back(std::vector<int64_t>{3}, -2.0f);
  const std::string weights_path = TempPath("bounds_weights.ckpt");
  const std::string path = TempPath("bounds_state.ckpt");
  ASSERT_TRUE(nn::SaveCheckpoint(lin, weights_path).ok());
  ASSERT_TRUE(nn::SaveCheckpoint(lin, st, path).ok());
  const std::string full = ReadAll(path);

  // The train state starts where a weights-only file's CRC does: epoch i32
  // and best_mrr f64, then the best-params count u32 and its one tensor
  // (rank u32, dims 2 x i64, 6 floats), the RNG state (4 x u64, u32, f64)
  // and one optimizer scalar (count u32, f64); the slot count follows.
  const size_t best_count_at =
      ReadAll(weights_path).size() - sizeof(uint32_t) + 4 + 8;
  const size_t best_dim_at = best_count_at + 4 + 4;
  const size_t slot_count_at =
      best_count_at + 4 + (4 + 16 + 24) + (32 + 4 + 8) + (4 + 8);
  ASSERT_EQ(PodAt<uint32_t>(full, best_count_at), 1u);
  ASSERT_EQ(PodAt<int64_t>(full, best_dim_at), 2);
  ASSERT_EQ(PodAt<uint32_t>(full, slot_count_at), 1u);

  struct Case {
    const char* what;
    std::string bytes;
    const char* message;
  };
  const std::vector<Case> cases = {
      {"best-params count 0xFFFFFFFF",
       Resealed(full, best_count_at, uint32_t{0xFFFFFFFFu}), "implausible"},
      {"best-params count 0x10000000",
       Resealed(full, best_count_at, uint32_t{0x10000000u}), "implausible"},
      {"optimizer slot count 2^20 - 1",
       Resealed(full, slot_count_at, uint32_t{(1u << 20) - 1}),
       "implausible"},
      {"best-params dim 2^30",
       Resealed(full, best_dim_at, int64_t{1} << 30), "overruns"},
  };
  const std::string victim = TempPath("bounds_victim.ckpt");
  for (const Case& c : cases) {
    WriteAll(victim, c.bytes);
    nn::Linear into(2, 2, &rng);
    nn::TrainState out;
    const Status s = nn::LoadCheckpoint(victim, &into, &out);
    EXPECT_EQ(s.code(), StatusCode::kInvalidArgument) << c.what;
    EXPECT_NE(s.message().find(c.message), std::string::npos)
        << c.what << ": " << s.message();
  }
}

TEST(CheckpointFuzzTest, TruncateFailpointIsCaughtByCrc) {
  auto& fp = robust::Failpoints::Global();
  fp.ClearAll();
  fp.Set("ckpt.truncate", 1.0, /*limit=*/1);
  Rng rng(12);
  nn::Linear lin(2, 2, &rng);
  const std::string path = TempPath("torn.ckpt");
  // The torn write itself reports success — exactly the dangerous case.
  ASSERT_TRUE(nn::SaveCheckpoint(lin, path).ok());
  EXPECT_EQ(fp.TriggerCount("ckpt.truncate"), 1);
  Status s = nn::LoadCheckpoint(path, &lin);
  ASSERT_FALSE(s.ok());
  fp.ClearAll();
}

TEST(CheckpointFuzzTest, WriteAndReadFailpointsInject) {
  auto& fp = robust::Failpoints::Global();
  fp.ClearAll();
  Rng rng(13);
  nn::Linear lin(2, 2, &rng);
  const std::string path = TempPath("injected.ckpt");

  fp.Set("ckpt.write", 1.0, /*limit=*/1);
  Status s = nn::SaveCheckpoint(lin, path);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInternal);
  EXPECT_NE(s.message().find("ckpt.write"), std::string::npos);

  ASSERT_TRUE(nn::SaveCheckpoint(lin, path).ok());  // limit exhausted
  fp.Set("ckpt.read", 1.0, /*limit=*/1);
  s = nn::LoadCheckpoint(path, &lin);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInternal);
  ASSERT_TRUE(nn::LoadCheckpoint(path, &lin).ok());
  fp.ClearAll();
}

}  // namespace
}  // namespace embsr
