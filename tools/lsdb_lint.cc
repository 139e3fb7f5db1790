// lsdb_lint: domain-specific static checks for the lsdb tree.
//
// Complements clang-tidy (which may be absent from a minimal toolchain —
// this tool builds with nothing beyond the standard library) with twelve
// project rules that generic linters cannot express:
//
//   lsdb-ignored-status    every Status/StatusOr return must be consumed.
//                          The compiler enforces bare discards via
//                          [[nodiscard]]; this rule additionally rejects
//                          cast-to-void evasion and bare statement calls,
//                          since (void) silences the compiler without
//                          recording intent. IgnoreError() is the one
//                          sanctioned discard.
//   lsdb-page-cast         no reinterpret_cast / C-style cast of raw page
//                          bytes outside storage/ and the node-IO TUs.
//                          Page decoding belongs next to the checksum and
//                          corruption handling, not scattered in indexes.
//   lsdb-assert-on-disk    read-path TUs may not assert() without a NOLINT
//                          justification: disk-loaded data must be rejected
//                          with typed Status::Corruption, never aborted on
//                          (asserts vanish in NDEBUG builds and crash in
//                          debug ones — both wrong for untrusted input).
//   lsdb-counter-mutation  MetricCounters fields may only be mutated
//                          through CounterSink(...) (or inside
//                          util/counters.*), keeping the paper metrics
//                          redirectable per query by a QueryContext.
//   lsdb-determinism       no rand()/time()/wall-clock in src/lsdb outside
//                          obs/ — paper experiments must replay bit-exact.
//                          std::chrono::steady_clock (monotonic latency
//                          timing) is allowed.
//   lsdb-unchecked-mmap-cast
//                          no typed-pointer casts into mapped snapshot
//                          memory outside the mmap view and the snapshot
//                          layer. Mapped bytes are untrusted until their
//                          page checksum is verified; consumers must use
//                          the per-byte codecs (snapshot_format.h), which
//                          are alignment-safe and cannot dodge
//                          verify-on-first-touch.
//   lsdb-hot-counter-in-descent
//                          index descent TUs may only touch query-path
//                          profiling state through LSDB_INTROSPECT(...),
//                          whose off-cost is one thread-local load and an
//                          untaken branch. Bare QueryProfile hook calls or
//                          direct ThreadProfile() use in a descent loop
//                          put unconditional stat work on the hot path and
//                          break the zero-cost-when-off guarantee.
//   lsdb-raw-intrinsic     no raw vector intrinsics (_mm*/vld1q_*/...) or
//                          vendor SIMD headers outside src/lsdb/simd/.
//                          Vector code must go through the simd:: kernels,
//                          which centralize ISA dispatch, padding-lane
//                          semantics, and the scalar-oracle equivalence
//                          the differential tests enforce.
//   lsdb-unbounded-wait    serving-path TUs (service/, storage/) may not
//                          block forever on a condition variable: plain
//                          .wait() / .Wait() / .WaitOnce() has no deadline
//                          at all, and a timed wait_for/wait_until (or
//                          WaitFor/WaitUntil) without the predicate
//                          overload is lost-wakeup-prone. The sanctioned
//                          form is WaitUntil(mu, deadline, predicate)
//                          with the deadline derived from a budget or
//                          cancel token; a wait that is provably bounded
//                          another way carries a NOLINT with the reason.
//   lsdb-raw-mutex         bare std:: synchronization primitives (mutex,
//                          condition_variable, lock_guard, unique_lock,
//                          ...) are confined to src/lsdb/util/. Everything
//                          else uses lsdb::Mutex / lsdb::MutexLock /
//                          lsdb::CondVar (util/mutex.h), which carry the
//                          Clang thread-safety capability annotations and
//                          feed the runtime lock-order verifier; a raw
//                          primitive is invisible to both.
//   lsdb-tls-redirect-pairing
//                          the query context guard, ScopedQueryContext,
//                          may only live as a scoped stack object. Heap-
//                          or static-allocating one (new / make_unique /
//                          static / thread_local) decouples restore from
//                          scope exit: the TLS slot then dangles or leaks
//                          across queries on the worker thread.
//   lsdb-tsa-escape        every LSDB_NO_THREAD_SAFETY_ANALYSIS use must
//                          carry a `tsa-escape: <reason>` comment on the
//                          same line or the comment block directly above.
//                          Justified escapes are counted and summarized on
//                          stderr; a bare escape is a finding (the whole
//                          point of the annotations is that blanket
//                          opt-outs don't accumulate silently).
//
// Suppression: `// NOLINT(lsdb-<rule>): reason` on the offending line, or
// `// NOLINTNEXTLINE(lsdb-<rule>): reason` on the line above. A bare
// NOLINT suppresses every rule. Fixture files can override how they are
// classified with a leading `// lsdb-lint-pretend-path: <path>` comment.
//
// Usage: lsdb_lint <file>...
// Exit status: 0 when clean, 1 when any finding is reported, 2 on I/O
// errors. Findings print as `path:line: [lsdb-rule] message`.

#include <cctype>
#include <cstdio>
#include <fstream>
#include <set>
#include <string>
#include <vector>

namespace {

struct Finding {
  std::string path;
  size_t line;  // 1-based
  std::string rule;
  std::string message;
};

// ---------------------------------------------------------------------------
// Rule configuration (derived from the shipped tree; see DESIGN.md §11).
// ---------------------------------------------------------------------------

// Names of functions returning Status/StatusOr, extracted from the
// [[nodiscard]] annotations in src/lsdb/**/*.h. A bare statement (or
// cast-to-void) whose outermost trailing call is one of these discards an
// error. "status" covers `x.status();` chains on StatusOr.
const std::set<std::string>& StatusNames() {
  static const std::set<std::string> kNames = {
      "Alloc", "AllocNode", "Allocate", "Append", "AverageBucketOccupancy",
      "BlockEntries", "BuildIndexes", "BulkLoad", "CheckInvariants",
      "CheckMutable", "CheckRec", "ChoosePath", "CollectLeafBlocks",
      "CollectLeafMbrs", "CollectLeafRegions", "Contains", "Erase",
      "EraseRec", "ExecuteBatch", "ExecuteBatchSequential", "Fetch",
      "FindIntersectingLeaves", "FindLeaf", "FindLeafPath", "FixUnderflow",
      "Flush", "FlushAll", "Free", "FreeNode", "FreeSubtreePage", "Get",
      "GetVictimFrame", "GrowRoot", "HandleOverflow", "Init", "Insert",
      "InsertEntry", "InsertRec", "IsLeaf", "Load", "LoadChainedLeaf",
      "LoadLeafChain", "LoadNode", "LocateBlock", "Nearest", "New", "Open",
      "PointQuery", "PointQueryEx", "PointWindow", "Read",
      "ReadPageVerified", "ReadSuperblock", "Scan", "ScanPiece", "SeekGE",
      "SeekLE", "SetUpObservability", "SplitBlock", "SplitInternalMulti",
      "SplitLeafMulti", "SplitNode", "SplitSubtree", "Store",
      "StoreLeafChain", "StoreNode", "TryMergeUpward", "UnpackKeyChecked",
      "UpdatePathRects", "VisitLeavesInCellRect", "VisitWindowSegments",
      "WindowQuery", "WindowQueryEx", "WindowQueryRec",
      "WindowQueryStaticDecomposed", "WindowQueryTraversal", "WindowRec",
      "Write", "WritePageStamped", "WriteSuperblock", "status",
  };
  return kNames;
}

// MetricCounters field names (util/counters.h).
const std::vector<std::string>& CounterFields() {
  static const std::vector<std::string> kFields = {
      "disk_reads",    "disk_writes", "page_fetches",
      "segment_comps", "bbox_comps",  "bucket_comps",
  };
  return kFields;
}

// TUs that decode disk-resident bytes; asserts there need a justification.
const std::vector<std::string>& ReadPathTus() {
  static const std::vector<std::string> kTus = {
      "src/lsdb/btree/btree.cc",         "src/lsdb/rtree/rnode.cc",
      "src/lsdb/rtree/rstar_tree.cc",    "src/lsdb/rplus/rplus_tree.cc",
      "src/lsdb/pmr/pmr_quadtree.cc",    "src/lsdb/storage/buffer_pool.cc",
      "src/lsdb/storage/page_file.cc",   "src/lsdb/storage/superblock.cc",
      "src/lsdb/seg/segment_table.cc",   "src/lsdb/grid/uniform_grid.cc",
  };
  return kTus;
}

// TUs allowed to reinterpret raw page bytes: the storage layer itself plus
// the node (de)serializers and the checksum kernel. The SIMD kernels cast
// in-memory SoA lanes (never page bytes) to vector types, which needs the
// same spelling.
const std::vector<std::string>& PageCastAllowlist() {
  static const std::vector<std::string> kAllow = {
      "src/lsdb/storage/", "src/lsdb/rtree/rnode.cc",
      "src/lsdb/btree/btree.cc", "src/lsdb/util/crc32c.cc",
      "src/lsdb/simd/",
  };
  return kAllow;
}

// TUs allowed to hold typed pointers into mapped memory: the mmap view
// class itself and the snapshot layer that owns the mapping (the single
// mmap(2) call site in the tree).
const std::vector<std::string>& MmapCastAllowlist() {
  static const std::vector<std::string> kAllow = {
      "src/lsdb/storage/mmap_page_file",
      "src/lsdb/snapshot/",
  };
  return kAllow;
}

// Serving-path layers where a stuck thread wedges the whole service: the
// worker pool / admission queue and the buffer pool. Condition-variable
// waits there must be predicate-checked and deadline-bounded.
const std::vector<std::string>& WaitScopes() {
  static const std::vector<std::string> kScopes = {
      "src/lsdb/service/", "src/lsdb/storage/",
  };
  return kScopes;
}

// TUs containing index descent loops (the query hot path). Profiling state
// there may only be touched through the LSDB_INTROSPECT macro.
const std::vector<std::string>& DescentTus() {
  static const std::vector<std::string> kTus = {
      "src/lsdb/btree/btree.cc",      "src/lsdb/rtree/rstar_tree.cc",
      "src/lsdb/rplus/rplus_tree.cc", "src/lsdb/pmr/pmr_quadtree.cc",
      "src/lsdb/grid/uniform_grid.cc",
  };
  return kTus;
}

// ---------------------------------------------------------------------------
// Small text helpers.
// ---------------------------------------------------------------------------

bool IsIdentChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

std::string Trim(const std::string& s) {
  size_t b = s.find_first_not_of(" \t");
  if (b == std::string::npos) return "";
  size_t e = s.find_last_not_of(" \t");
  return s.substr(b, e - b + 1);
}

bool EndsWith(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

bool PathContains(const std::string& path, const std::string& part) {
  return path.find(part) != std::string::npos;
}

// True when `hay[pos..]` starts an occurrence of identifier `word` with
// identifier boundaries on both sides.
bool WordAt(const std::string& hay, size_t pos, const std::string& word) {
  if (hay.compare(pos, word.size(), word) != 0) return false;
  if (pos > 0 && IsIdentChar(hay[pos - 1])) return false;
  size_t end = pos + word.size();
  if (end < hay.size() && IsIdentChar(hay[end])) return false;
  return true;
}

// Strips // and /* */ comments and the contents of string/char literals
// (quotes stay so token boundaries survive). Keeps the line count intact so
// findings map back to source lines.
std::vector<std::string> StripCommentsAndStrings(
    const std::vector<std::string>& raw) {
  std::vector<std::string> out;
  out.reserve(raw.size());
  bool in_block = false;
  for (const std::string& line : raw) {
    std::string s;
    s.reserve(line.size());
    for (size_t i = 0; i < line.size(); ++i) {
      if (in_block) {
        if (line[i] == '*' && i + 1 < line.size() && line[i + 1] == '/') {
          in_block = false;
          ++i;
        }
        continue;
      }
      char c = line[i];
      if (c == '/' && i + 1 < line.size() && line[i + 1] == '/') break;
      if (c == '/' && i + 1 < line.size() && line[i + 1] == '*') {
        in_block = true;
        ++i;
        continue;
      }
      if (c == '"' || c == '\'') {
        const char quote = c;
        s.push_back(quote);
        ++i;
        while (i < line.size()) {
          if (line[i] == '\\') {
            i += 2;
            continue;
          }
          if (line[i] == quote) break;
          ++i;
        }
        s.push_back(quote);
        continue;
      }
      s.push_back(c);
    }
    out.push_back(std::move(s));
  }
  return out;
}

// NOLINT / NOLINTNEXTLINE handling against the *raw* lines (comments carry
// the markers). `line` is 0-based.
bool MarkerSuppresses(const std::string& raw, const std::string& marker,
                      const std::string& rule) {
  size_t pos = raw.find(marker);
  while (pos != std::string::npos) {
    size_t after = pos + marker.size();
    // Bare NOLINT (not NOLINTNEXTLINE when searching for NOLINT).
    if (after >= raw.size() || raw[after] != '(') {
      if (marker == "NOLINT" &&
          raw.compare(pos, 13, "NOLINTNEXTLINE") == 0) {
        pos = raw.find(marker, pos + 1);
        continue;
      }
      return true;  // bare marker suppresses everything
    }
    size_t close = raw.find(')', after);
    std::string list = raw.substr(after + 1, close == std::string::npos
                                                 ? std::string::npos
                                                 : close - after - 1);
    if (list.find(rule) != std::string::npos) return true;
    pos = raw.find(marker, after);
  }
  return false;
}

bool Suppressed(const std::vector<std::string>& raw, size_t line0,
                const std::string& rule) {
  if (line0 < raw.size() && MarkerSuppresses(raw[line0], "NOLINT", rule)) {
    return true;
  }
  if (line0 > 0 &&
      MarkerSuppresses(raw[line0 - 1], "NOLINTNEXTLINE", rule)) {
    return true;
  }
  return false;
}

// ---------------------------------------------------------------------------
// Rule: lsdb-ignored-status
// ---------------------------------------------------------------------------

bool IsKeyword(const std::string& tok) {
  static const std::set<std::string> kKeywords = {
      "if",       "else",     "for",      "while",   "do",      "switch",
      "case",     "default",  "return",   "goto",    "break",   "continue",
      "new",      "delete",   "using",    "namespace", "template",
      "typedef",  "struct",   "class",    "enum",    "union",   "public",
      "private",  "protected", "static",  "const",   "constexpr", "auto",
      "void",     "bool",     "char",     "int",     "unsigned", "long",
      "short",    "float",    "double",   "sizeof",  "operator", "throw",
      "try",      "catch",    "co_return", "co_await", "co_yield",
  };
  return kKeywords.count(tok) > 0;
}

// Does this trimmed line begin a plain expression statement of the form
// `ident(.|->|::|()...`? Declarations (`Type name...`) and control flow do
// not match.
bool StartsCallChain(const std::string& t) {
  size_t i = 0;
  while (i < t.size() && IsIdentChar(t[i])) ++i;
  if (i == 0) return false;
  const std::string first = t.substr(0, i);
  if (IsKeyword(first)) return false;
  while (i < t.size() && (t[i] == ' ' || t[i] == '\t')) ++i;
  if (i >= t.size()) return false;
  return t[i] == '.' || t[i] == '(' ||
         (t[i] == ':' && i + 1 < t.size() && t[i + 1] == ':') ||
         (t[i] == '-' && i + 1 < t.size() && t[i + 1] == '>');
}

// Analyzes one complete expression statement (text up to and including the
// terminating depth-0 ';'). Returns the name of the outermost trailing
// call, or "" when the statement is not a pure call chain (assignments,
// arithmetic at depth 0, ...).
std::string OutermostTrailingCall(const std::string& stmt) {
  int depth = 0;
  std::string ident;
  std::string top_call;
  for (size_t i = 0; i < stmt.size(); ++i) {
    const char c = stmt[i];
    if (c == '(' || c == '[') {
      if (c == '(' && depth == 0 && !ident.empty()) top_call = ident;
      ++depth;
      ident.clear();
      continue;
    }
    if (c == ')' || c == ']') {
      --depth;
      ident.clear();
      continue;
    }
    if (depth > 0) continue;  // call arguments don't matter
    if (IsIdentChar(c)) {
      ident.push_back(c);
      continue;
    }
    if (c == ' ' || c == '\t') continue;
    if (c == ';') break;
    if (c == '.' || c == ':') {  // member access / scope: next segment
      ident.clear();
      continue;
    }
    if (c == '-' && i + 1 < stmt.size() && stmt[i + 1] == '>') {
      ident.clear();
      ++i;
      continue;
    }
    // Any other depth-0 token — an assignment, arithmetic, a comma — means
    // the value is consumed (or this is not a plain call statement).
    return "";
  }
  return top_call;
}

void CheckIgnoredStatus(const std::string& path,
                        const std::vector<std::string>& raw,
                        const std::vector<std::string>& stripped,
                        std::vector<Finding>* findings) {
  const std::string kRule = "lsdb-ignored-status";
  const size_t n = stripped.size();

  // Part 1: cast-to-void evasion anywhere on a line.
  for (size_t i = 0; i < n; ++i) {
    const std::string& line = stripped[i];
    size_t cast = line.find("(void)");
    if (cast == std::string::npos) cast = line.find("static_cast<void>");
    if (cast == std::string::npos) continue;
    // Only flag when a known Status-returning name is invoked in the cast
    // expression; `(void)unused_param;` stays legal.
    for (const std::string& name : StatusNames()) {
      size_t pos = line.find(name, cast);
      while (pos != std::string::npos) {
        size_t after = pos + name.size();
        while (after < line.size() && line[after] == ' ') ++after;
        if (WordAt(line, pos, name) && after < line.size() &&
            line[after] == '(') {
          if (!Suppressed(raw, i, kRule)) {
            findings->push_back(
                {path, i + 1, kRule,
                 "cast-to-void discards the Status from " + name +
                     "(); handle it or call .IgnoreError()"});
          }
          pos = std::string::npos;
          cast = std::string::npos;  // one finding per line is enough
          break;
        }
        pos = line.find(name, pos + 1);
      }
      if (cast == std::string::npos) break;
    }
  }

  // Part 2: bare expression statements whose outermost trailing call
  // returns Status/StatusOr.
  size_t i = 0;
  while (i < n) {
    const std::string t = Trim(stripped[i]);
    if (!StartsCallChain(t)) {
      ++i;
      continue;
    }
    // A line that merely continues the previous one (`auto x =` / an open
    // argument list / a binary operator) is not a statement start, even
    // when it looks like a call chain.
    {
      size_t p = i;
      std::string prev;
      while (p > 0 && prev.empty()) prev = Trim(stripped[--p]);
      if (!prev.empty()) {
        const char last = prev.back();
        static const std::string kContinuation = "=,(+-*/%&|<>?:.";
        if (kContinuation.find(last) != std::string::npos) {
          ++i;
          continue;
        }
      }
    }
    // Accumulate the statement until a ';' at paren depth 0. A '{' at
    // depth 0 means this was a definition or compound statement: bail and
    // rescan the following lines individually.
    std::string stmt;
    int depth = 0;
    bool complete = false, aborted = false;
    size_t j = i;
    for (; j < n && j < i + 200; ++j) {
      const std::string& line = stripped[j];
      for (char c : line) {
        if (c == '(' || c == '[') ++depth;
        if (c == ')' || c == ']') --depth;
        if (depth == 0 && c == '{') {
          aborted = true;
          break;
        }
        stmt.push_back(c);
        if (depth == 0 && c == ';') {
          complete = true;
          break;
        }
      }
      stmt.push_back(' ');
      if (complete || aborted) break;
    }
    if (complete) {
      const std::string call = OutermostTrailingCall(Trim(stmt));
      if (!call.empty() && StatusNames().count(call) > 0 &&
          !Suppressed(raw, i, kRule)) {
        findings->push_back(
            {path, i + 1, kRule,
             "result of " + call +
                 "() is a Status/StatusOr and is silently discarded; "
                 "handle it or call .IgnoreError()"});
      }
      i = j + 1;
    } else {
      ++i;
    }
  }
}

// ---------------------------------------------------------------------------
// Rule: lsdb-page-cast
// ---------------------------------------------------------------------------

// Matches C-style casts to byte pointers: (uint8_t*), (const char *), ...
bool HasByteCast(const std::string& line, size_t* where) {
  static const std::vector<std::string> kByteTypes = {
      "uint8_t", "int8_t", "char", "unsigned char", "signed char",
      "std::uint8_t", "std::byte", "void",
  };
  for (size_t pos = line.find('('); pos != std::string::npos;
       pos = line.find('(', pos + 1)) {
    size_t p = pos + 1;
    while (p < line.size() && line[p] == ' ') ++p;
    if (line.compare(p, 6, "const ") == 0) p += 6;
    while (p < line.size() && line[p] == ' ') ++p;
    for (const std::string& ty : kByteTypes) {
      if (line.compare(p, ty.size(), ty) != 0) continue;
      size_t q = p + ty.size();
      if (q < line.size() && IsIdentChar(line[q])) continue;
      while (q < line.size() && (line[q] == ' ' || line[q] == '*')) ++q;
      if (q < line.size() && line[q] == ')' && line.find('*', p) < q) {
        // Must be applied to something: a cast, not a parameter list.
        size_t r = q + 1;
        while (r < line.size() && line[r] == ' ') ++r;
        if (r < line.size() &&
            (IsIdentChar(line[r]) || line[r] == '(' || line[r] == '&')) {
          *where = pos;
          return true;
        }
      }
    }
  }
  return false;
}

void CheckPageCast(const std::string& path,
                   const std::vector<std::string>& raw,
                   const std::vector<std::string>& stripped,
                   std::vector<Finding>* findings) {
  const std::string kRule = "lsdb-page-cast";
  if (!PathContains(path, "src/lsdb/")) return;
  for (const std::string& allow : PageCastAllowlist()) {
    if (PathContains(path, allow)) return;
  }
  for (size_t i = 0; i < stripped.size(); ++i) {
    const std::string& line = stripped[i];
    size_t where = 0;
    const bool reinterpret = line.find("reinterpret_cast<") !=
                             std::string::npos;
    if ((reinterpret || HasByteCast(line, &where)) &&
        !Suppressed(raw, i, kRule)) {
      findings->push_back(
          {path, i + 1, kRule,
           std::string(reinterpret ? "reinterpret_cast" : "C-style byte cast") +
               " of raw bytes outside storage/ and the node-IO TUs; move "
               "page decoding next to its corruption checks"});
    }
  }
}

// ---------------------------------------------------------------------------
// Rule: lsdb-assert-on-disk
// ---------------------------------------------------------------------------

void CheckAssertOnDisk(const std::string& path,
                       const std::vector<std::string>& raw,
                       const std::vector<std::string>& stripped,
                       std::vector<Finding>* findings) {
  const std::string kRule = "lsdb-assert-on-disk";
  bool read_path = false;
  for (const std::string& tu : ReadPathTus()) {
    if (EndsWith(path, tu)) {
      read_path = true;
      break;
    }
  }
  if (!read_path) return;
  for (size_t i = 0; i < stripped.size(); ++i) {
    const std::string& line = stripped[i];
    size_t pos = line.find("assert");
    while (pos != std::string::npos) {
      size_t after = pos + 6;
      while (after < line.size() && line[after] == ' ') ++after;
      if (WordAt(line, pos, "assert") && after < line.size() &&
          line[after] == '(') {
        if (!Suppressed(raw, i, kRule)) {
          findings->push_back(
              {path, i + 1, kRule,
               "assert() in a disk-read TU: corrupt pages must surface as "
               "Status::Corruption; if this checks an in-memory invariant, "
               "annotate it with // NOLINT(lsdb-assert-on-disk): <reason>"});
        }
        break;
      }
      pos = line.find("assert", pos + 1);
    }
  }
}

// ---------------------------------------------------------------------------
// Rule: lsdb-counter-mutation
// ---------------------------------------------------------------------------

bool ChainChar(char c) {
  return IsIdentChar(c) || c == '.' || c == '(' || c == ')' || c == '[' ||
         c == ']' || c == ':' || c == '-' || c == '>' || c == '_' ||
         c == '&' || c == '*';
}

void CheckCounterMutation(const std::string& path,
                          const std::vector<std::string>& raw,
                          const std::vector<std::string>& stripped,
                          std::vector<Finding>* findings) {
  const std::string kRule = "lsdb-counter-mutation";
  if (!PathContains(path, "src/lsdb/")) return;
  if (EndsWith(path, "util/counters.h") ||
      EndsWith(path, "util/counters.cc")) {
    return;  // the counter implementation mutates its own fields
  }
  for (size_t i = 0; i < stripped.size(); ++i) {
    const std::string& line = stripped[i];
    for (const std::string& field : CounterFields()) {
      size_t pos = line.find(field);
      bool flagged = false;
      while (pos != std::string::npos && !flagged) {
        if (!WordAt(line, pos, field)) {
          pos = line.find(field, pos + 1);
          continue;
        }
        // The access chain the field belongs to, scanned backwards.
        size_t chain_begin = pos;
        while (chain_begin > 0 && ChainChar(line[chain_begin - 1])) {
          --chain_begin;
        }
        bool mutated = false;
        // Postfix / compound mutation: field followed by a mutating op.
        // Plain `=` is deliberately not matched: counters are increment-
        // only, and `=` is what field declarations and copies into report
        // structs (QueryStats, QuerySpan) legitimately use.
        size_t after = pos + field.size();
        while (after < line.size() && line[after] == ' ') ++after;
        if (after + 1 < line.size()) {
          const std::string op = line.substr(after, 2);
          if (op == "++" || op == "--" || op == "+=" || op == "-=" ||
              op == "*=" || op == "/=" || op == "|=" || op == "&=" ||
              op == "^=") {
            mutated = true;
          }
        }
        // Prefix mutation: ++/-- immediately before the chain.
        size_t before = chain_begin;
        while (before > 0 && line[before - 1] == ' ') --before;
        if (before >= 2) {
          const std::string op = line.substr(before - 2, 2);
          if (op == "++" || op == "--") mutated = true;
        }
        // The sink may bind earlier on the line than the mutated chain:
        // `if (MetricCounters* m = CounterSink(...)) ++m->field;`.
        if (mutated && line.find("CounterSink(") == std::string::npos &&
            !Suppressed(raw, i, kRule)) {
          findings->push_back(
              {path, i + 1, kRule,
               "direct mutation of MetricCounters field '" + field +
                   "'; route increments through CounterSink(...) so "
                   "a QueryContext can redirect them"});
          flagged = true;
        }
        pos = line.find(field, pos + 1);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Rule: lsdb-determinism
// ---------------------------------------------------------------------------

void CheckDeterminism(const std::string& path,
                      const std::vector<std::string>& raw,
                      const std::vector<std::string>& stripped,
                      std::vector<Finding>* findings) {
  const std::string kRule = "lsdb-determinism";
  if (!PathContains(path, "src/lsdb/")) return;
  if (PathContains(path, "src/lsdb/obs/")) return;
  static const std::vector<std::string> kCallBans = {"rand", "srand",
                                                     "time", "clock"};
  static const std::vector<std::string> kTokenBans = {
      "system_clock", "high_resolution_clock", "random_device",
      "gettimeofday",
  };
  for (size_t i = 0; i < stripped.size(); ++i) {
    const std::string& line = stripped[i];
    std::string hit;
    for (const std::string& name : kCallBans) {
      size_t pos = line.find(name);
      while (pos != std::string::npos) {
        size_t after = pos + name.size();
        while (after < line.size() && line[after] == ' ') ++after;
        if (WordAt(line, pos, name) && after < line.size() &&
            line[after] == '(') {
          hit = name + "()";
          break;
        }
        pos = line.find(name, pos + 1);
      }
      if (!hit.empty()) break;
    }
    if (hit.empty()) {
      for (const std::string& tok : kTokenBans) {
        size_t pos = line.find(tok);
        if (pos != std::string::npos && WordAt(line, pos, tok)) {
          hit = tok;
          break;
        }
      }
    }
    if (!hit.empty() && !Suppressed(raw, i, kRule)) {
      findings->push_back(
          {path, i + 1, kRule,
           hit + " in src/lsdb breaks experiment reproducibility; use the "
                 "seeded lsdb::Random (or steady_clock for durations), or "
                 "move the code under obs/"});
    }
  }
}

// ---------------------------------------------------------------------------
// Rule: lsdb-unchecked-mmap-cast
// ---------------------------------------------------------------------------

void CheckUncheckedMmapCast(const std::string& path,
                            const std::vector<std::string>& raw,
                            const std::vector<std::string>& stripped,
                            std::vector<Finding>* findings) {
  const std::string kRule = "lsdb-unchecked-mmap-cast";
  if (!PathContains(path, "src/lsdb/")) return;
  for (const std::string& allow : MmapCastAllowlist()) {
    if (PathContains(path, allow)) return;
  }
  // Substring match on purpose: `mapped->`, `MappedPage`, `snapshot_mmap`
  // all mark a line as touching mapped memory.
  static const std::vector<std::string> kMappedTokens = {
      "mmap", "mapped", "Mapped", "MapPage",
  };
  for (size_t i = 0; i < stripped.size(); ++i) {
    const std::string& line = stripped[i];
    bool mapped_line = false;
    for (const std::string& tok : kMappedTokens) {
      if (line.find(tok) != std::string::npos) {
        mapped_line = true;
        break;
      }
    }
    if (!mapped_line) continue;
    std::string cast;
    size_t where = 0;
    if (line.find("reinterpret_cast<") != std::string::npos) {
      cast = "reinterpret_cast";
    } else if (HasByteCast(line, &where)) {
      cast = "C-style cast";
    } else {
      // static_cast to any pointer type (a '*' inside the template args).
      const size_t pos = line.find("static_cast<");
      if (pos != std::string::npos) {
        const size_t close = line.find('>', pos);
        if (close != std::string::npos && line.find('*', pos) < close) {
          cast = "static_cast to a pointer";
        }
      }
    }
    if (!cast.empty() && !Suppressed(raw, i, kRule)) {
      findings->push_back(
          {path, i + 1, kRule,
           cast + " into mapped memory outside the mmap view; mapped bytes "
                  "are untrusted until checksum-verified — decode them with "
                  "the per-byte codecs (snapshot_format.h)"});
    }
  }
}

// ---------------------------------------------------------------------------
// Rule: lsdb-hot-counter-in-descent
// ---------------------------------------------------------------------------

void CheckHotCounterInDescent(const std::string& path,
                              const std::vector<std::string>& raw,
                              const std::vector<std::string>& stripped,
                              std::vector<Finding>* findings) {
  const std::string kRule = "lsdb-hot-counter-in-descent";
  bool descent = false;
  for (const std::string& tu : DescentTus()) {
    if (EndsWith(path, tu)) {
      descent = true;
      break;
    }
  }
  if (!descent) return;
  // QueryProfile hook methods (introspect/profiler.h). A call to one of
  // these outside LSDB_INTROSPECT runs unconditionally — stat work on the
  // hot path even with introspection off.
  static const std::vector<std::string> kHooks = {
      "OnNode", "OnBtreeNode", "BeginBucket", "EndBucket", "OnResult",
  };
  // Direct access to the thread-local profiling target. Descent TUs never
  // need it: the macro performs the load-and-test itself.
  static const std::vector<std::string> kTlsTokens = {
      "ThreadProfile", "tls_query_context",
  };
  // Paren depth inside an LSDB_INTROSPECT(...) argument list; hook names
  // on a wrapped continuation line are still guarded.
  int guard_depth = 0;
  for (size_t i = 0; i < stripped.size(); ++i) {
    const std::string& line = stripped[i];
    bool guarded = guard_depth > 0;
    size_t macro = line.find("LSDB_INTROSPECT");
    if (macro != std::string::npos) guarded = true;
    // Update the carry-over depth: from the macro's opening paren (or the
    // line start when already inside one) to the end of the line.
    size_t from = guard_depth > 0
                      ? 0
                      : (macro == std::string::npos ? line.size() : macro);
    for (size_t p = from; p < line.size(); ++p) {
      if (line[p] == '(') ++guard_depth;
      if (line[p] == ')' && guard_depth > 0) {
        if (--guard_depth == 0) break;  // macro closed; rest is unguarded
      }
    }

    std::string hit;
    for (const std::string& hook : kHooks) {
      size_t pos = line.find(hook);
      while (pos != std::string::npos) {
        size_t after = pos + hook.size();
        while (after < line.size() && line[after] == ' ') ++after;
        if (WordAt(line, pos, hook) && after < line.size() &&
            line[after] == '(') {
          hit = hook + "()";
          break;
        }
        pos = line.find(hook, pos + 1);
      }
      if (!hit.empty()) break;
    }
    if (hit.empty()) {
      for (const std::string& tok : kTlsTokens) {
        size_t pos = line.find(tok);
        if (pos != std::string::npos && WordAt(line, pos, tok)) {
          hit = tok;
          guarded = false;  // never sanctioned in a descent TU, macro or not
          break;
        }
      }
    }
    if (!hit.empty() && !guarded && !Suppressed(raw, i, kRule)) {
      findings->push_back(
          {path, i + 1, kRule,
           "unguarded profiling touch '" + hit +
               "' in an index descent TU; wrap it as LSDB_INTROSPECT(...) "
               "so the off-path stays one TLS load and an untaken branch"});
    }
  }
}

// ---------------------------------------------------------------------------
// Rule: lsdb-raw-intrinsic
// ---------------------------------------------------------------------------

void CheckRawIntrinsic(const std::string& path,
                       const std::vector<std::string>& raw,
                       const std::vector<std::string>& stripped,
                       std::vector<Finding>* findings) {
  const std::string kRule = "lsdb-raw-intrinsic";
  if (!PathContains(path, "src/lsdb/")) return;
  if (PathContains(path, "src/lsdb/simd/")) return;
  // Vendor SIMD headers; pulling one in is the first step of scattering
  // intrinsics, so the include itself is the finding.
  static const std::vector<std::string> kHeaders = {
      "immintrin.h", "emmintrin.h", "xmmintrin.h", "smmintrin.h",
      "tmmintrin.h", "nmmintrin.h", "wmmintrin.h", "avxintrin.h",
      "avx2intrin.h", "arm_neon.h", "arm_sve.h",
  };
  // NEON intrinsics have no common `_mm`-style prefix; match the families
  // the kernels use (loads/stores, compares, bitwise, dup, reductions).
  static const std::vector<std::string> kNeonPrefixes = {
      "vld1",  "vst1",  "vdupq_", "vcgtq_", "vcgeq_", "vcltq_", "vceqq_",
      "vorrq_", "vandq_", "veorq_", "vmvnq_", "vaddvq_", "vminvq_",
      "vmaxvq_",
  };
  for (size_t i = 0; i < stripped.size(); ++i) {
    // Include scan against the raw line: quoted includes are string
    // literals and would be blanked by the stripper.
    if (raw[i].find("#include") != std::string::npos) {
      for (const std::string& hdr : kHeaders) {
        if (raw[i].find(hdr) != std::string::npos &&
            !Suppressed(raw, i, kRule)) {
          findings->push_back(
              {path, i + 1, kRule,
               "vendor SIMD header <" + hdr +
                   "> outside src/lsdb/simd/; use the simd:: kernels "
                   "(simd/simd.h) instead of raw intrinsics"});
          break;
        }
      }
    }
    const std::string& line = stripped[i];
    std::string hit;
    // x86 intrinsics: an identifier starting `_mm` (covers _mm_, _mm256_,
    // _mm512_ and the __m128i/__m256i types via their _mm-prefixed use).
    size_t pos = line.find("_mm");
    while (pos != std::string::npos && hit.empty()) {
      const bool word_start = pos == 0 || !IsIdentChar(line[pos - 1]);
      if (word_start && pos + 3 < line.size() &&
          (line[pos + 3] == '_' ||
           std::isdigit(static_cast<unsigned char>(line[pos + 3])) != 0)) {
        size_t end = pos;
        while (end < line.size() && IsIdentChar(line[end])) ++end;
        hit = line.substr(pos, end - pos);
      }
      pos = line.find("_mm", pos + 1);
    }
    if (hit.empty()) {
      for (const std::string& prefix : kNeonPrefixes) {
        size_t p = line.find(prefix);
        while (p != std::string::npos) {
          if (p == 0 || !IsIdentChar(line[p - 1])) {
            size_t end = p;
            while (end < line.size() && IsIdentChar(line[end])) ++end;
            hit = line.substr(p, end - p);
            break;
          }
          p = line.find(prefix, p + 1);
        }
        if (!hit.empty()) break;
      }
    }
    if (!hit.empty() && !Suppressed(raw, i, kRule)) {
      findings->push_back(
          {path, i + 1, kRule,
           "raw SIMD intrinsic '" + hit +
               "' outside src/lsdb/simd/; route vector code through the "
               "simd:: kernels so ISA dispatch, padding-lane semantics, "
               "and the scalar oracle stay centralized"});
    }
  }
}

// ---------------------------------------------------------------------------
// Rule: lsdb-unbounded-wait
// ---------------------------------------------------------------------------

// Counts top-level arguments of a call whose opening paren is at
// (line_idx, paren_pos) in `stripped`, scanning across continuation lines.
// Returns 0 for an empty list, -1 when the list never closes in range.
int CountCallArgs(const std::vector<std::string>& stripped, size_t line_idx,
                  size_t paren_pos) {
  int depth = 0;
  int commas = 0;
  bool any_token = false;
  for (size_t j = line_idx; j < stripped.size() && j < line_idx + 50; ++j) {
    const std::string& line = stripped[j];
    for (size_t p = (j == line_idx ? paren_pos : 0); p < line.size(); ++p) {
      const char c = line[p];
      if (c == '(' || c == '[') {
        ++depth;
        continue;
      }
      if (c == ')' || c == ']') {
        --depth;
        if (depth == 0) return any_token ? commas + 1 : 0;
        continue;
      }
      if (depth == 1 && c == ',') {
        ++commas;
        continue;
      }
      if (depth >= 1 && c != ' ' && c != '\t') any_token = true;
    }
  }
  return -1;
}

void CheckUnboundedWait(const std::string& path,
                        const std::vector<std::string>& raw,
                        const std::vector<std::string>& stripped,
                        std::vector<Finding>* findings) {
  const std::string kRule = "lsdb-unbounded-wait";
  bool in_scope = false;
  for (const std::string& scope : WaitScopes()) {
    if (PathContains(path, scope)) {
      in_scope = true;
      break;
    }
  }
  if (!in_scope) return;
  for (size_t i = 0; i < stripped.size(); ++i) {
    const std::string& line = stripped[i];
    // A wait must be a member call (`cv.wait(...)` / `cv->wait(...)`):
    // that anchors the match to condition variables / futures and skips
    // free functions that happen to contain "wait". The capitalized names
    // are lsdb::CondVar's spellings: Wait/WaitOnce are deadline-less,
    // WaitFor/WaitUntil are timed and must pass the predicate overload.
    static const std::vector<std::string> kDeadlineless = {"wait", "Wait",
                                                           "WaitOnce"};
    static const std::vector<std::string> kTimed = {"wait_for", "wait_until",
                                                    "WaitFor", "WaitUntil"};
    std::vector<std::string> names;
    names.insert(names.end(), kDeadlineless.begin(), kDeadlineless.end());
    names.insert(names.end(), kTimed.begin(), kTimed.end());
    for (const std::string& name : names) {
      const bool deadlineless =
          name == "wait" || name == "Wait" || name == "WaitOnce";
      size_t pos = line.find(name);
      while (pos != std::string::npos) {
        const bool member =
            (pos > 0 && line[pos - 1] == '.') ||
            (pos > 1 && line[pos - 2] == '-' && line[pos - 1] == '>');
        size_t after = pos + name.size();
        while (after < line.size() && line[after] == ' ') ++after;
        if (member && WordAt(line, pos, name) && after < line.size() &&
            line[after] == '(') {
          if (deadlineless) {
            if (!Suppressed(raw, i, kRule)) {
              findings->push_back(
                  {path, i + 1, kRule,
                   "deadline-less " + name +
                       "() in a serving-path TU can block a worker "
                       "forever; use WaitUntil(mu, deadline, predicate) "
                       "with a budget- or token-derived deadline, or "
                       "annotate // NOLINT(lsdb-unbounded-wait): <reason>"});
            }
          } else {
            // Timed waits must use the predicate overload (>= 3 args):
            // the 2-arg form returns cv_status and silently tolerates
            // spurious wakeups / missed notifies.
            const int args = CountCallArgs(stripped, i, after);
            if (args >= 0 && args < 3 && !Suppressed(raw, i, kRule)) {
              findings->push_back(
                  {path, i + 1, kRule,
                   name + "() without a predicate is lost-wakeup-prone; "
                          "pass the predicate overload " +
                       name + "(mu, deadline, predicate)"});
            }
          }
          break;  // one finding per line per name
        }
        pos = line.find(name, pos + 1);
      }
    }
  }
}

// lsdb-raw-mutex: inside src/lsdb/ (util/ excepted), synchronization must
// go through lsdb::Mutex / lsdb::MutexLock / lsdb::CondVar so that every
// lock participates in both the Clang thread-safety analysis and the
// runtime lock-order verifier. A bare std:: primitive is invisible to
// both, which is exactly how an unannotated deadlock slips in.
void CheckRawMutex(const std::string& path,
                   const std::vector<std::string>& raw,
                   const std::vector<std::string>& stripped,
                   std::vector<Finding>* findings) {
  const std::string kRule = "lsdb-raw-mutex";
  if (!PathContains(path, "src/lsdb/")) return;
  if (PathContains(path, "src/lsdb/util/")) return;  // the wrappers live here
  static const std::vector<std::string> kBanned = {
      "mutex",          "timed_mutex",
      "recursive_mutex", "recursive_timed_mutex",
      "shared_mutex",   "shared_timed_mutex",
      "condition_variable", "condition_variable_any",
      "lock_guard",     "unique_lock",
      "scoped_lock",    "shared_lock",
  };
  for (size_t i = 0; i < stripped.size(); ++i) {
    const std::string& line = stripped[i];
    size_t pos = line.find("std::");
    while (pos != std::string::npos) {
      const size_t name_pos = pos + 5;
      for (const std::string& name : kBanned) {
        if (WordAt(line, name_pos, name)) {
          if (!Suppressed(raw, i, kRule)) {
            findings->push_back(
                {path, i + 1, kRule,
                 "bare std::" + name +
                     " bypasses the thread-safety annotations and the "
                     "lock-order verifier; use lsdb::Mutex / "
                     "lsdb::MutexLock / lsdb::CondVar from "
                     "util/mutex.h instead"});
          }
          break;  // one finding per std:: occurrence
        }
      }
      pos = line.find("std::", pos + 1);
    }
  }
}

// lsdb-tls-redirect-pairing: the query context guard (ScopedQueryContext)
// saves the thread-local context in its constructor and restores it in
// its destructor, so correctness depends on strict LIFO nesting on one
// thread. Heap or static storage decouples destruction order from scope
// order and silently corrupts the saved context for every later frame on
// the thread.
void CheckTlsRedirectPairing(const std::string& path,
                             const std::vector<std::string>& raw,
                             const std::vector<std::string>& stripped,
                             std::vector<Finding>* findings) {
  const std::string kRule = "lsdb-tls-redirect-pairing";
  const std::string kGuard = "ScopedQueryContext";
  // Storage forms that break scope-paired destruction. The `<` forms catch
  // std::make_unique<Guard> / std::make_shared<Guard> / vector<Guard>.
  static const std::vector<std::string> kBadPrefixes = {
      "new ", "make_unique<", "make_shared<", "static ", "thread_local ",
      "vector<", "deque<", "optional<", "unique_ptr<", "shared_ptr<",
  };
  for (size_t i = 0; i < stripped.size(); ++i) {
    const std::string& line = stripped[i];
    size_t pos = line.find(kGuard);
    bool flagged = false;
    while (pos != std::string::npos && !flagged) {
      if (WordAt(line, pos, kGuard)) {
        for (const std::string& prefix : kBadPrefixes) {
          const size_t start = pos >= prefix.size() ? pos - prefix.size()
                                                    : std::string::npos;
          if (start != std::string::npos &&
              line.compare(start, prefix.size(), prefix) == 0 &&
              (start == 0 || !IsIdentChar(line[start - 1]))) {
            if (!Suppressed(raw, i, kRule)) {
              findings->push_back(
                  {path, i + 1, kRule,
                   kGuard + " saves the thread-local query context and "
                            "must be a block-scoped stack object; '" +
                       Trim(prefix) + "' storage breaks the LIFO "
                                      "save/restore pairing"});
            }
            flagged = true;  // one finding per line
            break;
          }
        }
      }
      pos = line.find(kGuard, pos + 1);
    }
  }
}

// lsdb-tsa-escape: LSDB_NO_THREAD_SAFETY_ANALYSIS turns the analysis off
// for a whole function, so every use must explain itself with a
// `tsa-escape: <reason>` comment (same line or in the comment block
// directly above). Justified escapes are counted and reported so the
// total stays visible in CI logs; bare escapes are findings.
void CheckTsaEscape(const std::string& path,
                    const std::vector<std::string>& raw,
                    const std::vector<std::string>& stripped,
                    std::vector<Finding>* findings,
                    size_t* justified_escapes) {
  const std::string kRule = "lsdb-tsa-escape";
  // The macro's own definition (and its documentation) live here.
  if (EndsWith(path, "util/thread_annotations.h")) return;
  const std::string kMacro = "LSDB_NO_THREAD_SAFETY_ANALYSIS";
  const std::string kTag = "tsa-escape:";
  for (size_t i = 0; i < stripped.size(); ++i) {
    size_t pos = stripped[i].find(kMacro);
    if (pos == std::string::npos || !WordAt(stripped[i], pos, kMacro)) {
      continue;
    }
    bool justified = raw[i].find(kTag) != std::string::npos;
    // Walk the contiguous comment block directly above the use.
    for (size_t j = i; !justified && j > 0; --j) {
      const std::string above = Trim(raw[j - 1]);
      if (above.compare(0, 2, "//") != 0) break;
      justified = above.find(kTag) != std::string::npos;
    }
    if (justified) {
      if (justified_escapes != nullptr) ++*justified_escapes;
    } else if (!Suppressed(raw, i, kRule)) {
      findings->push_back(
          {path, i + 1, kRule,
           "LSDB_NO_THREAD_SAFETY_ANALYSIS without a justification; add "
           "a `// tsa-escape: <why the analysis cannot see this "
           "invariant>` comment on the same line or directly above"});
    }
  }
}

// ---------------------------------------------------------------------------
// Driver.
// ---------------------------------------------------------------------------

bool LintFile(const std::string& arg_path, std::vector<Finding>* findings,
              size_t* justified_escapes) {
  std::ifstream in(arg_path);
  if (!in) {
    std::fprintf(stderr, "lsdb_lint: cannot open %s\n", arg_path.c_str());
    return false;
  }
  std::vector<std::string> raw;
  std::string line;
  while (std::getline(in, line)) raw.push_back(line);

  // Fixtures masquerade as tree files via a pretend-path directive.
  std::string path = arg_path;
  for (size_t i = 0; i < raw.size() && i < 10; ++i) {
    const std::string kDirective = "lsdb-lint-pretend-path:";
    size_t pos = raw[i].find(kDirective);
    if (pos != std::string::npos) {
      path = Trim(raw[i].substr(pos + kDirective.size()));
      break;
    }
  }

  const std::vector<std::string> stripped = StripCommentsAndStrings(raw);
  std::vector<Finding> file_findings;
  CheckIgnoredStatus(path, raw, stripped, &file_findings);
  CheckPageCast(path, raw, stripped, &file_findings);
  CheckAssertOnDisk(path, raw, stripped, &file_findings);
  CheckCounterMutation(path, raw, stripped, &file_findings);
  CheckDeterminism(path, raw, stripped, &file_findings);
  CheckUncheckedMmapCast(path, raw, stripped, &file_findings);
  CheckHotCounterInDescent(path, raw, stripped, &file_findings);
  CheckRawIntrinsic(path, raw, stripped, &file_findings);
  CheckUnboundedWait(path, raw, stripped, &file_findings);
  CheckRawMutex(path, raw, stripped, &file_findings);
  CheckTlsRedirectPairing(path, raw, stripped, &file_findings);
  CheckTsaEscape(path, raw, stripped, &file_findings, justified_escapes);
  for (Finding& f : file_findings) {
    f.path = arg_path;  // report the real file, even under pretend-path
    findings->push_back(std::move(f));
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: lsdb_lint <file>...\n");
    return 2;
  }
  std::vector<Finding> findings;
  size_t justified_escapes = 0;
  bool io_ok = true;
  for (int i = 1; i < argc; ++i) {
    io_ok = LintFile(argv[i], &findings, &justified_escapes) && io_ok;
  }
  for (const Finding& f : findings) {
    std::printf("%s:%zu: [%s] %s\n", f.path.c_str(), f.line,
                f.rule.c_str(), f.message.c_str());
  }
  if (justified_escapes > 0) {
    std::fprintf(stderr,
                 "lsdb_lint: %zu justified thread-safety-analysis "
                 "escape(s)\n",
                 justified_escapes);
  }
  if (!io_ok) return 2;
  if (!findings.empty()) {
    std::fprintf(stderr, "lsdb_lint: %zu finding(s)\n", findings.size());
    return 1;
  }
  return 0;
}
