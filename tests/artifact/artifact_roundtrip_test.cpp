// .sca artifact round-trip — write, mmap-load, and prove NOTHING changed.
//
// The artifact exists so that workers and the serve daemon can skip the
// parse + flatten pipeline, so the whole value of the format rests on one
// claim: an artifact-loaded session is INDISTINGUISHABLE from the session
// that would have been built from the source netlist. These tests pin that
// claim at every level — raw CompiledCircuit tables element-identical
// (memcmp, so doubles compare as IEEE patterns, not EXPECT_DOUBLE_EQ), the
// restored Circuit node-id-identical (same topo order, same fanout ORDER —
// the LIFO tie-break the bit-for-bit engine contract depends on), and
// finally the canonical CSV/harden text renderings byte-equal across every
// engine and shard count. A session reads the file as it is when it opens:
// a rewritten path opens the new circuit.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "sereep/sereep.hpp"
#include "src/artifact/compiled_artifact.hpp"
#include "src/netlist/benchmarks.hpp"
#include "src/netlist/generator.hpp"

namespace sereep {
namespace {

/// A unique artifact path under the test temp dir; removed by the caller.
std::string temp_sca(const std::string& stem) {
  return ::testing::TempDir() + "sereep_" + stem + "_" +
         std::to_string(::getpid()) + ".sca";
}

struct ScopedFile {
  explicit ScopedFile(std::string p) : path(std::move(p)) {}
  ~ScopedFile() { std::remove(path.c_str()); }
  std::string path;
};

template <typename T>
void expect_span_identical(std::span<const T> want, std::span<const T> got,
                           const char* name) {
  ASSERT_EQ(want.size(), got.size()) << name;
  if (!want.empty()) {
    EXPECT_EQ(std::memcmp(want.data(), got.data(), want.size_bytes()), 0)
        << name;
  }
}

void expect_compiled_identical(const CompiledCircuit& want,
                               const CompiledCircuit& got) {
  const CompiledCircuit::Parts w = want.view();
  const CompiledCircuit::Parts g = got.view();
  expect_span_identical(w.types, g.types, "types");
  expect_span_identical(w.is_sink, g.is_sink, "is_sink");
  expect_span_identical(w.bucket_level, g.bucket_level, "bucket_level");
  expect_span_identical(w.topo_pos, g.topo_pos, "topo_pos");
  expect_span_identical(w.fanin_offsets, g.fanin_offsets, "fanin_offsets");
  expect_span_identical(w.fanin_ids, g.fanin_ids, "fanin_ids");
  expect_span_identical(w.fanout_offsets, g.fanout_offsets, "fanout_offsets");
  expect_span_identical(w.fanout_ids, g.fanout_ids, "fanout_ids");
  expect_span_identical(w.sinks_by_rank, g.sinks_by_rank, "sinks_by_rank");
  expect_span_identical(w.cone_estimate, g.cone_estimate, "cone_estimate");
  EXPECT_EQ(w.bucket_count, g.bucket_count);
}

// ---- raw table round-trip --------------------------------------------------

TEST(ArtifactRoundTrip, CompiledTablesElementIdentical) {
  for (const Circuit& circuit :
       {make_c17(), make_s27(),
        generate_circuit(iscas89_profile("s953"), 0x5eed)}) {
    ScopedFile f(temp_sca("tables_" + circuit.name()));
    const CircuitFingerprint written = write_artifact(f.path, circuit);
    EXPECT_TRUE(written == circuit_fingerprint(circuit));

    const ArtifactView view(f.path);
    EXPECT_TRUE(view.fingerprint() == written);
    EXPECT_EQ(view.node_count(), circuit.nodes().size());
    EXPECT_EQ(view.circuit_name(), circuit.name());
    expect_compiled_identical(CompiledCircuit(circuit), view.compiled());
  }
}

// ---- circuit restoration ---------------------------------------------------

TEST(ArtifactRoundTrip, RestoredCircuitIsNodeIdIdentical) {
  // The PR-5 foot-gun this format closes: a .bench round-trip is NOT
  // node-id-identical to its source (the writer reorders), but the artifact
  // must be — same ids, same names, same fanin AND fanout order (fanout
  // order drives the topo tie-break), same output marking order.
  const Circuit original = generate_circuit(iscas89_profile("s953"), 23);
  ScopedFile f(temp_sca("restore"));
  write_artifact(f.path, original);

  const ArtifactView view(f.path);
  const Circuit restored = view.restore_circuit();
  ASSERT_EQ(restored.nodes().size(), original.nodes().size());
  for (NodeId id = 0; id < original.nodes().size(); ++id) {
    const Node& a = original.nodes()[id];
    const Node& b = restored.nodes()[id];
    EXPECT_EQ(a.name, b.name) << id;
    EXPECT_EQ(a.type, b.type) << id;
    EXPECT_EQ(a.is_primary_output, b.is_primary_output) << id;
    EXPECT_EQ(a.fanin, b.fanin) << id;
    EXPECT_EQ(a.fanout, b.fanout) << id;
  }
  expect_span_identical<NodeId>(original.inputs(), restored.inputs(),
                                "inputs");
  expect_span_identical<NodeId>(original.dffs(), restored.dffs(), "dffs");
  EXPECT_TRUE(circuit_fingerprint(restored) == circuit_fingerprint(original));
  // The strongest form: the restored circuit COMPILES identically, topo
  // order and all.
  expect_compiled_identical(CompiledCircuit(original),
                            CompiledCircuit(restored));
}

TEST(ArtifactRoundTrip, PeekMatchesFullLoad) {
  ScopedFile f(temp_sca("peek"));
  const CircuitFingerprint written = write_artifact(f.path, make_c17());
  EXPECT_TRUE(peek_artifact_fingerprint(f.path) == written);
}

// ---- Session integration ---------------------------------------------------

TEST(ArtifactSession, RecordsFingerprintAndBorrowsCompiledView) {
  ScopedFile f(temp_sca("counts"));
  const CircuitFingerprint written = write_artifact(f.path, make_s27());

  Session session = Session::open(f.path);
  ASSERT_TRUE(session.artifact_fingerprint().has_value());
  EXPECT_TRUE(*session.artifact_fingerprint() == written);
  (void)session.sweep();
  (void)session.ser();
  // The compiled view was borrowed from the mapping, never BUILT — the
  // whole point of the file. The SP table and cluster plan are derived from
  // it once, as for every other netlist source.
  EXPECT_EQ(session.build_counts().compiled, 0u);
  EXPECT_EQ(session.build_counts().sp, 1u);
  EXPECT_EQ(session.build_counts().planner, 1u);

  // A non-artifact session has no artifact identity.
  Session plain = Session::open("s27");
  EXPECT_FALSE(plain.artifact_fingerprint().has_value());
}

TEST(ArtifactSession, NonDefaultSpOptionsMatchSourceSession) {
  // The file holds no SP option: an artifact session under non-default
  // source probabilities renders the from-source session's bytes.
  ScopedFile f(temp_sca("spopts"));
  write_artifact(f.path, make_s27());

  Options opt;
  opt.sp.probabilities.input_sp = 0.25;
  Session session = Session::open(f.path, opt);
  (void)session.sweep();
  EXPECT_EQ(session.build_counts().compiled, 0u) << "compiled view is"
                                                    " option-independent";
  EXPECT_EQ(session.build_counts().sp, 1u);

  Session want = Session::open("s27", opt);
  EXPECT_EQ(session.sweep_csv(), want.sweep_csv());
}

TEST(ArtifactSession, RewrittenPathOpensTheNewCircuit) {
  // write_artifact renames a new file over the path, so a live session of
  // the old file keeps a valid mapping of the old inode. Opening the path
  // again must read the file as it is now: the new circuit, never the
  // still-mapped old one.
  ScopedFile f(temp_sca("rewrite"));
  write_artifact(f.path, make_c17());
  Session old_session = Session::open(f.path);
  ASSERT_EQ(old_session.circuit().node_count(), 11u);

  const CircuitFingerprint s27 = write_artifact(f.path, make_s27());
  Session session = Session::open(f.path);
  ASSERT_TRUE(session.artifact_fingerprint().has_value());
  EXPECT_TRUE(*session.artifact_fingerprint() == s27);
  std::ifstream golden(std::string(SEREEP_SOURCE_DIR) +
                       "/tests/data/sweep_s27.golden.csv");
  std::ostringstream want;
  want << golden.rdbuf();
  EXPECT_EQ(session.sweep_csv(), want.str());
  EXPECT_EQ(load_netlist(f.path).node_count(), 17u);
  // The old session still answers for the circuit it opened.
  EXPECT_EQ(old_session.circuit().node_count(), 11u);
}

TEST(ArtifactSession, ByteIdenticalRenderingsAcrossEngines) {
  // The acceptance bar: every canonical text rendering, through every
  // engine, from the artifact == from the source netlist. EXPECT_EQ on the
  // whole string — no tolerance.
  // The in-memory sessions are built from a SECOND generator run with the
  // same seed — identical by construction. (Comparing against a saved
  // .bench would reintroduce the loader-reorder drift the artifact format
  // exists to eliminate.)
  const Circuit circuit = generate_circuit(iscas89_profile("s953"), 42);
  ScopedFile f(temp_sca("engines"));
  write_artifact(f.path, circuit);

  for (const char* engine : {"reference", "compiled", "batched"}) {
    Options opt;
    opt.engine = engine;
    Session from_source(generate_circuit(iscas89_profile("s953"), 42), opt);
    Session from_artifact = Session::open(f.path, opt);
    EXPECT_EQ(from_artifact.sweep_csv(), from_source.sweep_csv()) << engine;
    EXPECT_EQ(from_artifact.ser_csv(), from_source.ser_csv()) << engine;
    EXPECT_EQ(from_artifact.harden_text(0.3), from_source.harden_text(0.3))
        << engine;
  }
}

TEST(ArtifactSession, ShardedWorkersLoadTheArtifact) {
  // A session opened from a .sca shards like any other: its fleet maps an
  // artifact of the circuit the session restored, and the result is
  // byte-identical to the batched engine at every shard count.
  const Circuit circuit = generate_circuit(iscas89_profile("s953"), 42);
  ScopedFile f(temp_sca("sharded"));
  write_artifact(f.path, circuit);

  Session batched = Session::open(f.path);
  const std::string want_sweep = batched.sweep_csv();
  const std::string want_ser = batched.ser_csv();
  for (unsigned shards : {1u, 2u, 3u, 4u}) {
    Options opt;
    opt.engine = "sharded";
    opt.shard.shards = shards;
    opt.shard.worker_path = SEREEP_CLI_PATH;
    Session session = Session::open(f.path, opt);
    EXPECT_EQ(session.sweep_csv(), want_sweep) << shards;
    EXPECT_EQ(session.ser_csv(), want_ser) << shards;
  }
}

}  // namespace
}  // namespace sereep
