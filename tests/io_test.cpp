#include <gtest/gtest.h>
#include <omp.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include "commdet/gen/erdos_renyi.hpp"
#include "commdet/gen/rmat.hpp"
#include "commdet/gen/simple_graphs.hpp"
#include "commdet/graph/builder.hpp"
#include "commdet/graph/validate.hpp"
#include "commdet/io/binary.hpp"
#include "commdet/io/edge_list_text.hpp"
#include "commdet/io/matrix_market.hpp"
#include "commdet/io/metis.hpp"
#include "commdet/io/partition.hpp"
#include "commdet/io/snapshot.hpp"

namespace commdet {
namespace {

class IoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("commdet_io_test_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string path(const std::string& name) const { return (dir_ / name).string(); }

  static void write_file(const std::string& p, const std::string& content) {
    std::ofstream out(p);
    out << content;
  }

  std::filesystem::path dir_;
};

TEST_F(IoTest, TextRoundTripPreservesEdges) {
  const auto g = generate_erdos_renyi<std::int32_t>(100, 500, 7);
  write_edge_list_text(g, path("g.txt"));
  const auto back = read_edge_list_text<std::int32_t>(path("g.txt"));
  EXPECT_EQ(back.num_vertices, g.num_vertices);
  EXPECT_EQ(back.edges, g.edges);
}

TEST_F(IoTest, TextReaderHandlesCommentsAndDefaults) {
  write_file(path("g.txt"),
             "# SNAP-style comment\n"
             "% percent comment\n"
             "0 1\n"
             "1 2 5\n"
             "\n"
             "4 0\n");
  const auto g = read_edge_list_text<std::int32_t>(path("g.txt"));
  EXPECT_EQ(g.num_vertices, 5);  // max id + 1
  ASSERT_EQ(g.num_edges(), 3);
  EXPECT_EQ(g.edges[0].w, 1);  // default weight
  EXPECT_EQ(g.edges[1].w, 5);
}

TEST_F(IoTest, TextReaderRejectsMalformedInput) {
  write_file(path("bad1.txt"), "0 not_a_number\n");
  EXPECT_THROW((void)read_edge_list_text<std::int32_t>(path("bad1.txt")), std::runtime_error);
  write_file(path("bad2.txt"), "-1 2\n");
  EXPECT_THROW((void)read_edge_list_text<std::int32_t>(path("bad2.txt")), std::runtime_error);
  EXPECT_THROW((void)read_edge_list_text<std::int32_t>(path("missing.txt")), std::runtime_error);
}

TEST_F(IoTest, TextReaderRejectsIdsOverflowing32Bit) {
  write_file(path("big.txt"), "0 4294967296\n");
  EXPECT_THROW((void)read_edge_list_text<std::int32_t>(path("big.txt")), std::runtime_error);
  // But the 64-bit reader accepts them.
  const auto g = read_edge_list_text<std::int64_t>(path("big.txt"));
  EXPECT_EQ(g.num_vertices, 4294967297LL);
}

TEST_F(IoTest, BinaryRoundTripPreservesEdges) {
  const auto g = generate_erdos_renyi<std::int64_t>(1000, 5000, 9);
  write_edge_list_binary(g, path("g.bin"));
  const auto back = read_edge_list_binary<std::int64_t>(path("g.bin"));
  EXPECT_EQ(back.num_vertices, g.num_vertices);
  EXPECT_EQ(back.edges, g.edges);
}

std::vector<unsigned char> read_bytes(const std::string& p) {
  std::ifstream in(p, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

/// CRC-32 one bit at a time straight from the reflected polynomial: the
/// reference crc32_update must equal at every length, offset and seed.
std::uint32_t reference_crc32(std::uint32_t crc, const unsigned char* p, std::size_t n) {
  crc = ~crc;
  for (std::size_t i = 0; i < n; ++i) {
    crc ^= p[i];
    for (int k = 0; k < 8; ++k) crc = (crc & 1) ? 0xedb88320u ^ (crc >> 1) : crc >> 1;
  }
  return ~crc;
}

std::vector<unsigned char> random_bytes(std::size_t n, unsigned seed) {
  std::mt19937 rng(seed);
  std::vector<unsigned char> out(n);
  for (auto& b : out) b = static_cast<unsigned char>(rng());
  return out;
}

std::uint32_t load_u32(const std::vector<unsigned char>& bytes, std::size_t at) {
  std::uint32_t v = 0;
  std::memcpy(&v, bytes.data() + at, sizeof v);
  return v;
}

TEST_F(IoTest, BinaryRoundTripAtChunkBoundaries) {
  // Edge counts around the reader's chunk size C, at both label widths;
  // the trailer must also be the reference CRC of the counts and triples.
  constexpr auto C = static_cast<std::int64_t>(detail::kBinaryChunkTriples);
  const auto round_trip = [&](auto label) {
    using V = decltype(label);
    const std::int64_t nv = sizeof(V) == 8 ? std::int64_t{1} << 33 : 1000;
    for (const std::int64_t ne : {std::int64_t{0}, std::int64_t{1}, C - 1, C, C + 1, 2 * C + 5}) {
      EdgeList<V> g;
      g.num_vertices = static_cast<V>(nv);
      for (std::int64_t i = 0; i < ne; ++i)
        g.add(static_cast<V>((i * 7919) % nv), static_cast<V>(nv - 1 - i % nv),
              (i + 1) * 1000003);
      const std::string p = path("chunk.bin");
      write_edge_list_binary(g, p);
      const auto back = read_edge_list_binary<V>(p);
      EXPECT_EQ(back.num_vertices, g.num_vertices) << "ne=" << ne;
      EXPECT_EQ(back.edges, g.edges) << "ne=" << ne;
      const auto bytes = read_bytes(p);
      ASSERT_EQ(bytes.size(), std::size_t{8 + 16 + 4} + 24 * static_cast<std::size_t>(ne));
      EXPECT_EQ(load_u32(bytes, bytes.size() - 4),
                reference_crc32(0, bytes.data() + 8, bytes.size() - 12))
          << "ne=" << ne;
    }
  };
  round_trip(std::int32_t{0});
  round_trip(std::int64_t{0});
}

TEST_F(IoTest, BinaryRejectsCorruptFiles) {
  write_file(path("junk.bin"), "this is not a graph");
  EXPECT_THROW((void)read_edge_list_binary<std::int32_t>(path("junk.bin")), std::runtime_error);

  // Truncate a valid file.
  const auto g = generate_erdos_renyi<std::int32_t>(50, 100, 1);
  write_edge_list_binary(g, path("g.bin"));
  std::filesystem::resize_file(path("g.bin"), 40);
  EXPECT_THROW((void)read_edge_list_binary<std::int32_t>(path("g.bin")), std::runtime_error);
}

TEST_F(IoTest, MetisRoundTripThroughBuilder) {
  // Deduplicated, self-loop-free input (METIS requirement).
  const auto g = build_community_graph(make_caveman<std::int32_t>(4, 5));
  EdgeList<std::int32_t> el;
  el.num_vertices = g.num_vertices();
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    const auto i = static_cast<std::size_t>(e);
    el.add(g.efirst[i], g.esecond[i], g.eweight[i]);
  }
  write_metis(el, path("g.graph"));
  const auto back = read_metis<std::int32_t>(path("g.graph"));
  EXPECT_EQ(back.num_vertices, el.num_vertices);
  EXPECT_EQ(back.num_edges(), el.num_edges());
  const auto g2 = build_community_graph(back);
  EXPECT_TRUE(validate_graph(g2).ok());
  EXPECT_EQ(g2.total_weight, g.total_weight);
}

TEST_F(IoTest, MetisReaderParsesUnweightedFormat) {
  // Triangle in canonical METIS form.
  write_file(path("tri.graph"),
             "% a triangle\n"
             "3 3\n"
             "2 3\n"
             "1 3\n"
             "1 2\n");
  const auto g = read_metis<std::int32_t>(path("tri.graph"));
  EXPECT_EQ(g.num_vertices, 3);
  EXPECT_EQ(g.num_edges(), 3);
}

TEST_F(IoTest, MetisReaderRejectsBadFiles) {
  write_file(path("bad.graph"), "3 5\n2 3\n1 3\n1 2\n");  // count mismatch
  EXPECT_THROW((void)read_metis<std::int32_t>(path("bad.graph")), std::runtime_error);
  write_file(path("bad2.graph"), "3 3\n2 9\n1 3\n1 2\n");  // neighbor out of range
  EXPECT_THROW((void)read_metis<std::int32_t>(path("bad2.graph")), std::runtime_error);
  write_file(path("bad3.graph"), "3 3 011\n");  // vertex weights unsupported
  EXPECT_THROW((void)read_metis<std::int32_t>(path("bad3.graph")), std::runtime_error);
  EdgeList<std::int32_t> with_loop;
  with_loop.num_vertices = 2;
  with_loop.add(0, 0);
  EXPECT_THROW(write_metis(with_loop, path("loop.graph")), std::invalid_argument);
}

TEST_F(IoTest, MatrixMarketSymmetricPattern) {
  write_file(path("g.mtx"),
             "%%MatrixMarket matrix coordinate pattern symmetric\n"
             "% triangle\n"
             "3 3 3\n"
             "2 1\n"
             "3 1\n"
             "3 2\n");
  const auto g = read_matrix_market<std::int32_t>(path("g.mtx"));
  EXPECT_EQ(g.num_vertices, 3);
  EXPECT_EQ(g.num_edges(), 3);
  const auto cg = build_community_graph(g);
  EXPECT_TRUE(validate_graph(cg).ok());
  EXPECT_EQ(cg.total_weight, 3);
}

TEST_F(IoTest, MatrixMarketRealWeightsRounded) {
  write_file(path("w.mtx"),
             "%%MatrixMarket matrix coordinate real general\n"
             "2 2 1\n"
             "1 2 2.6\n");
  const auto g = read_matrix_market<std::int32_t>(path("w.mtx"));
  ASSERT_EQ(g.num_edges(), 1);
  EXPECT_EQ(g.edges[0].w, 3);
}

TEST_F(IoTest, MatrixMarketRejectsUnsupported) {
  write_file(path("c.mtx"), "%%MatrixMarket matrix coordinate complex general\n2 2 0\n");
  EXPECT_THROW((void)read_matrix_market<std::int32_t>(path("c.mtx")), std::runtime_error);
  write_file(path("r.mtx"), "%%MatrixMarket matrix coordinate pattern general\n2 3 0\n");
  EXPECT_THROW((void)read_matrix_market<std::int32_t>(path("r.mtx")), std::runtime_error);
}

// Reads `p` with an OpenMP team of `threads`, one chunk per thread.
template <VertexId V>
EdgeList<V> read_text_at(int threads, const std::string& p) {
  const int saved = omp_get_max_threads();
  omp_set_num_threads(threads);
  try {
    auto g = read_edge_list_text<V>(p);
    omp_set_num_threads(saved);
    return g;
  } catch (...) {
    omp_set_num_threads(saved);
    throw;
  }
}

TEST_F(IoTest, ParallelReaderMatchesSequentialExactly) {
  const auto g = generate_erdos_renyi<std::int32_t>(500, 20000, 13);
  write_edge_list_text(g, path("g.txt"));
  const auto seq = read_text_at<std::int32_t>(1, path("g.txt"));
  const auto par = read_text_at<std::int32_t>(4, path("g.txt"));
  EXPECT_EQ(par.num_vertices, seq.num_vertices);
  EXPECT_EQ(par.edges, seq.edges);
}

TEST_F(IoTest, ParallelReaderHandlesCommentsWeightsAndNoTrailingNewline) {
  write_file(path("g.txt"),
             "# header comment\n"
             "0 1\n"
             "% mid comment\n"
             "1 2 5\n"
             "\n"
             "4 0 2");  // no trailing newline
  const auto g = read_edge_list_text<std::int32_t>(path("g.txt"));
  EXPECT_EQ(g.num_vertices, 5);
  ASSERT_EQ(g.num_edges(), 3);
  EXPECT_EQ(g.edges[1].w, 5);
  EXPECT_EQ(g.edges[2].w, 2);
}

// A file whose lines straddle every chunk boundary of every team size
// from 2 to 4, mixing comments, CRLF and LF endings, blank lines, and
// weights, with no trailing newline: every team reads the same list.
TEST_F(IoTest, ReaderIsIdenticalAtEveryThreadCount) {
  EdgeList<std::int64_t> expected;
  std::vector<std::string> lines;
  std::vector<std::size_t> data_lines;  // indices into `lines`
  for (std::int64_t i = 0; i < 300; ++i) {
    const std::int64_t u = (i * 7919) % 1000, v = (i * 104729 + 3) % 100000;
    const std::string eol = i % 3 == 0 ? "\r\n" : "\n";
    if (i % 17 == 0) lines.push_back("# comment " + std::to_string(i) + eol);
    if (i % 23 == 0) lines.push_back(i % 2 == 0 ? "\r\n" : "\n");
    if (i % 29 == 0) lines.push_back("% other comment" + eol);
    const Weight w = i % 4 == 0 ? 1 : 1 + i % 9;
    data_lines.push_back(lines.size());
    lines.push_back(std::to_string(u) + (i % 5 == 0 ? "\t" : " ") + std::to_string(v) +
                    (i % 4 == 0 ? "" : " " + std::to_string(w)) + eol);
    expected.add(u, v, w);
    expected.num_vertices = std::max(expected.num_vertices, std::max(u, v) + 1);
  }
  lines.back().erase(lines.back().find_last_not_of("\r\n") + 1);  // no trailing newline

  // Pad lines until no chunk cut of a 2-, 3- or 4-thread read falls on a
  // line start, so each cut has to move to the next line.
  std::string content;
  for (int round = 0;; ++round) {
    ASSERT_LT(round, 1000);
    content.clear();
    std::vector<std::size_t> starts;
    for (const auto& l : lines) {
      starts.push_back(content.size());
      content += l;
    }
    std::size_t bad = lines.size();
    for (std::size_t t = 2; t <= 4 && bad == lines.size(); ++t)
      for (std::size_t c = 1; c < t; ++c) {
        const std::size_t cut = content.size() * c / t;
        const auto it = std::find(starts.begin(), starts.end(), cut);
        if (it != starts.end()) {
          bad = static_cast<std::size_t>(it - starts.begin());
          break;
        }
      }
    if (bad == lines.size()) break;
    // Shift the cut by one leading blank on the data line before it.
    const auto before = std::lower_bound(data_lines.begin(), data_lines.end(), bad);
    lines[before == data_lines.begin() ? data_lines.front() : *(before - 1)].insert(0, 1, ' ');
  }
  write_file(path("g.txt"), content);
  for (const int threads : {1, 2, 3, 4}) {
    const auto g = read_text_at<std::int64_t>(threads, path("g.txt"));
    EXPECT_EQ(g.num_vertices, expected.num_vertices) << threads << " threads";
    EXPECT_EQ(g.edges, expected.edges) << threads << " threads";
  }
}

TEST_F(IoTest, TextRoundTripOfRmatMultigraphAtEveryThreadCount) {
  RmatParams params;
  params.scale = 12;
  params.edge_factor = 4;
  auto g = generate_rmat<std::int64_t>(params);  // self-loops and repeated pairs
  for (std::size_t i = 0; i < g.edges.size(); i += 7)
    g.edges[i].w = 1 + static_cast<Weight>(i % 11);
  // The text format has no vertex count: the reader's is max id + 1.
  g.num_vertices = 0;
  for (const auto& e : g.edges) g.num_vertices = std::max({g.num_vertices, e.u + 1, e.v + 1});
  write_edge_list_text(g, path("g.txt"));
  for (const int threads : {1, 4}) {
    const auto back = read_text_at<std::int64_t>(threads, path("g.txt"));
    EXPECT_EQ(back.num_vertices, g.num_vertices) << threads << " threads";
    EXPECT_EQ(back.edges, g.edges) << threads << " threads";
  }
}

TEST_F(IoTest, ParallelReaderRejectsMalformedInput) {
  write_file(path("bad.txt"), "0 zebra\n");
  EXPECT_THROW((void)read_edge_list_text<std::int32_t>(path("bad.txt")), std::runtime_error);
  write_file(path("neg.txt"), "0 -4\n");
  EXPECT_THROW((void)read_edge_list_text<std::int32_t>(path("neg.txt")), std::runtime_error);
  EXPECT_THROW((void)read_edge_list_text<std::int32_t>(path("missing2.txt")),
               std::runtime_error);
}

TEST_F(IoTest, ParallelReaderEmptyFile) {
  write_file(path("empty.txt"), "");
  const auto g = read_edge_list_text<std::int32_t>(path("empty.txt"));
  EXPECT_EQ(g.num_vertices, 0);
  EXPECT_EQ(g.num_edges(), 0);
}

TEST_F(IoTest, PartitionDimacsRoundTrip) {
  const std::vector<std::int32_t> labels{0, 0, 1, 2, 1, 0};
  write_partition_dimacs(labels, path("p.txt"));
  EXPECT_EQ(read_partition_dimacs<std::int32_t>(path("p.txt")), labels);
}

TEST_F(IoTest, PartitionPairsRoundTripAnyOrder) {
  const std::vector<std::int64_t> labels{3, 1, 4, 1, 5};
  write_partition_pairs(labels, path("p.txt"));
  EXPECT_EQ(read_partition_pairs<std::int64_t>(path("p.txt")), labels);

  // Shuffled pair order still reads back densely.
  write_file(path("shuffled.txt"), "4 5\n0 3\n2 4\n1 1\n3 1\n");
  EXPECT_EQ(read_partition_pairs<std::int64_t>(path("shuffled.txt")), labels);
}

TEST_F(IoTest, PartitionReadersRejectMalformedInput) {
  write_file(path("bad.txt"), "0 1\n0 2\n");  // duplicate vertex
  EXPECT_THROW((void)read_partition_pairs<std::int32_t>(path("bad.txt")), std::runtime_error);
  write_file(path("gap.txt"), "0 1\n2 1\n");  // vertex 1 missing
  EXPECT_THROW((void)read_partition_pairs<std::int32_t>(path("gap.txt")), std::runtime_error);
  write_file(path("neg.txt"), "-3\n");
  EXPECT_THROW((void)read_partition_dimacs<std::int32_t>(path("neg.txt")), std::runtime_error);
  EXPECT_THROW((void)read_partition_dimacs<std::int32_t>(path("missing.txt")),
               std::runtime_error);
}

// ------------------------------------------------------------- crc32

TEST(Crc32, CheckValue) {
  const char* check = "123456789";
  EXPECT_EQ(crc32_update(0, check, 9), 0xCBF43926u);
  EXPECT_EQ(crc32_update(0, check, 0), 0u);
}

TEST(Crc32, EveryLengthAndOffsetMatchesBitwiseReference) {
  // Unaligned starts and lengths on both sides of the 16-byte step, from
  // a zero and a non-zero running CRC.
  const auto buf = random_bytes(256 + 16, 1);
  for (std::size_t off = 0; off < 16; ++off)
    for (std::size_t len = 0; len <= 256; ++len)
      for (const std::uint32_t seed : {0u, 0x9e3779b9u}) {
        const unsigned char* p = buf.data() + off;
        ASSERT_EQ(crc32_update(seed, p, len), reference_crc32(seed, p, len))
            << "offset " << off << " length " << len << " seed " << seed;
      }
}

TEST(Crc32, ChainsAtEverySplitPoint) {
  const auto buf = random_bytes(1024, 2);
  const std::uint32_t whole = crc32_update(0, buf.data(), buf.size());
  ASSERT_EQ(whole, reference_crc32(0, buf.data(), buf.size()));
  for (std::size_t split = 0; split <= buf.size(); ++split)
    ASSERT_EQ(crc32_update(crc32_update(0, buf.data(), split), buf.data() + split,
                           buf.size() - split),
              whole)
        << "split " << split;
}

TEST_F(IoTest, SnapshotHeaderCarriesReferenceCrc) {
  // Pinned on disk: a payload of exactly "123456789" carries the CRC-32
  // check value in the header, and a larger payload (a widened label
  // array longer than one write chunk) carries the reference CRC; both
  // headers seal their first 28 bytes with the reference CRC too.
  {
    SnapshotWriter w(path("check.snap"), 7);
    w.write_bytes("123456789", 9);
    w.commit();
  }
  auto bytes = read_bytes(path("check.snap"));
  ASSERT_EQ(bytes.size(), detail::kSnapshotHeaderBytes + 9);
  EXPECT_EQ(load_u32(bytes, 24), 0xCBF43926u);
  EXPECT_EQ(load_u32(bytes, 28), reference_crc32(0, bytes.data(), 28));

  std::vector<std::int32_t> labels(10000);
  for (std::size_t i = 0; i < labels.size(); ++i)
    labels[i] = static_cast<std::int32_t>((i * 2654435761u) & 0xffffffu) - (1 << 23);
  {
    SnapshotWriter w(path("labels.snap"), 7);
    w.write_u64(42);
    w.write_i64_array(labels);
    w.commit();
  }
  bytes = read_bytes(path("labels.snap"));
  ASSERT_EQ(bytes.size(), detail::kSnapshotHeaderBytes + 8 + 8 + 8 * labels.size());
  EXPECT_EQ(load_u32(bytes, 24),
            reference_crc32(0, bytes.data() + detail::kSnapshotHeaderBytes,
                            bytes.size() - detail::kSnapshotHeaderBytes));
  EXPECT_EQ(load_u32(bytes, 28), reference_crc32(0, bytes.data(), 28));

  SnapshotReader r(path("labels.snap"), 7);
  EXPECT_EQ(r.read_u64(), 42u);
  EXPECT_EQ(r.read_i64_array<std::int32_t>(), labels);
  r.finish();
}

}  // namespace
}  // namespace commdet
