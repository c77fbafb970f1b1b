// The content-addressed JIT cache: memory hits return the loaded object
// without recompiling, the LRU evicts, the disk cache survives a memory
// clear, flags are part of the key, and a failed compile leaves no
// temporary files behind (regression for the old leak).
#include "ocl/jit.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>

#include "common/error.hpp"

namespace lifta::ocl {
namespace {

namespace fs = std::filesystem;

/// A trivially compilable source, unique per call so tests sharing the
/// process-wide Jit singleton never collide on cache keys.
std::string uniqueSource(const std::string& tag) {
  static int counter = 0;
  return "// jit-cache-test " + tag + " " + std::to_string(++counter) +
         "\nextern \"C\" int lifta_test_sym() { return 42; }\n";
}

std::size_t entryCount(const std::string& dir) {
  std::size_t n = 0;
  for (auto it = fs::recursive_directory_iterator(dir);
       it != fs::recursive_directory_iterator(); ++it) {
    ++n;
  }
  return n;
}

TEST(JitCache, MemoryHitReturnsSameObjectWithoutRecompiling) {
  auto& jit = Jit::instance();
  const auto src = uniqueSource("hit");
  const auto s0 = jit.stats();
  auto a = jit.compile(src);
  auto b = jit.compile(src);
  const auto s1 = jit.stats();
  EXPECT_EQ(a.get(), b.get());
  EXPECT_EQ(s1.compiled, s0.compiled + 1);
  EXPECT_EQ(s1.hits, s0.hits + 1);
  EXPECT_NE(a->symbol("lifta_test_sym"), nullptr);
}

TEST(JitCache, ExtraFlagsArePartOfTheKey) {
  auto& jit = Jit::instance();
  const auto src = uniqueSource("flags");
  const auto s0 = jit.stats();
  auto a = jit.compile(src);
  auto b = jit.compile(src, "-DLIFTA_TEST_FLAG=1");
  EXPECT_NE(a.get(), b.get());
  EXPECT_EQ(jit.stats().compiled, s0.compiled + 2);
}

TEST(JitCache, LruEvictsTheLeastRecentlyUsedEntry) {
  auto& jit = Jit::instance();
  jit.setMemoryCacheCapacity(2);
  const auto a = uniqueSource("lru-a");
  const auto b = uniqueSource("lru-b");
  const auto c = uniqueSource("lru-c");
  jit.compile(a);
  jit.compile(b);
  const auto s0 = jit.stats();
  jit.compile(c);  // evicts a (least recently used)
  EXPECT_GT(jit.stats().evictions, s0.evictions);
  jit.compile(c);  // still resident
  EXPECT_EQ(jit.stats().compiled, s0.compiled + 1);
  jit.compile(a);  // gone from memory: recompiled
  EXPECT_EQ(jit.stats().compiled, s0.compiled + 2);
  jit.setMemoryCacheCapacity(256);
}

TEST(JitCache, DiskCacheServesAfterMemoryClearWithoutRecompiling) {
  auto& jit = Jit::instance();
  const std::string dir = jit.scratchDir() + "/disk_test";
  jit.setDiskCacheDir(dir);
  const auto src = uniqueSource("disk");
  jit.compile(src);
  const auto s0 = jit.stats();
  jit.clearMemoryCache();
  auto reloaded = jit.compile(src);
  const auto s1 = jit.stats();
  EXPECT_EQ(s1.diskHits, s0.diskHits + 1);
  EXPECT_EQ(s1.compiled, s0.compiled);  // dlopen'ed from disk, not rebuilt
  EXPECT_NE(reloaded->symbol("lifta_test_sym"), nullptr);
  jit.setDiskCacheDir("");
}

TEST(JitCache, CorruptDiskEntryFallsBackToCompiling) {
  auto& jit = Jit::instance();
  const std::string dir = jit.scratchDir() + "/disk_corrupt";
  jit.setDiskCacheDir(dir);
  const auto src = uniqueSource("corrupt");
  jit.compile(src);
  jit.clearMemoryCache();
  const auto s0 = jit.stats();
  // Truncate every cached object: dlopen must fail and fall through.
  for (auto& e : fs::directory_iterator(dir)) {
    std::ofstream(e.path(), std::ios::trunc);
  }
  auto rebuilt = jit.compile(src);
  const auto s1 = jit.stats();
  EXPECT_EQ(s1.compiled, s0.compiled + 1);
  EXPECT_EQ(s1.corruptEvictions, s0.corruptEvictions + 1);
  EXPECT_NE(rebuilt->symbol("lifta_test_sym"), nullptr);
  // The broken entry was evicted and replaced by the fresh build: a later
  // cold process would disk-hit, not trip over the same corruption again.
  jit.clearMemoryCache();
  const auto s2 = jit.stats();
  jit.compile(src);
  EXPECT_EQ(jit.stats().diskHits, s2.diskHits + 1);
  jit.setDiskCacheDir("");
}

TEST(JitCache, GarbageDiskEntryAlsoFallsBack) {
  auto& jit = Jit::instance();
  const std::string dir = jit.scratchDir() + "/disk_garbage";
  jit.setDiskCacheDir(dir);
  const auto src = uniqueSource("garbage");
  jit.compile(src);
  jit.clearMemoryCache();
  const auto s0 = jit.stats();
  for (auto& e : fs::directory_iterator(dir)) {
    std::ofstream f(e.path(), std::ios::trunc | std::ios::binary);
    f << "not an ELF object at all";
  }
  auto rebuilt = jit.compile(src);
  EXPECT_EQ(jit.stats().compiled, s0.compiled + 1);
  EXPECT_EQ(jit.stats().corruptEvictions, s0.corruptEvictions + 1);
  EXPECT_NE(rebuilt->symbol("lifta_test_sym"), nullptr);
  jit.setDiskCacheDir("");
}

TEST(JitCache, CompilerVersionIsPartOfTheKey) {
  auto& jit = Jit::instance();
  const auto src = uniqueSource("version");
  const auto s0 = jit.stats();
  jit.compile(src);
  EXPECT_EQ(jit.stats().compiled, s0.compiled + 1);

  // Fake a compiler upgrade: the identity changes, so the same source must
  // miss the cache and recompile instead of serving the stale object.
  const std::string before = Jit::compilerIdentity();
  ::setenv("LIFTA_CXX_VERSION", "lifta-fake-compiler 99.9.9", 1);
  EXPECT_NE(Jit::compilerIdentity(), before);
  jit.compile(src);
  EXPECT_EQ(jit.stats().compiled, s0.compiled + 2);

  // Same faked version again: back to a plain memory hit.
  const auto s1 = jit.stats();
  jit.compile(src);
  EXPECT_EQ(jit.stats().compiled, s1.compiled);
  EXPECT_EQ(jit.stats().hits, s1.hits + 1);

  ::unsetenv("LIFTA_CXX_VERSION");
  EXPECT_EQ(Jit::compilerIdentity(), before);
}

TEST(JitCache, FailedCompileThrowsWithLogAndLeavesNoTempFiles) {
  auto& jit = Jit::instance();
  const auto before = entryCount(jit.scratchDir());
  try {
    jit.compile("this is not C++ }{" + uniqueSource("fail"));
    FAIL() << "expected OclError";
  } catch (const OclError& e) {
    EXPECT_NE(std::string(e.what()).find("build failed"), std::string::npos);
  }
  EXPECT_EQ(entryCount(jit.scratchDir()), before);
}

TEST(JitCache, ScratchDirLivesUnderTheTempDirectory) {
  const fs::path scratch = Jit::instance().scratchDir();
  const fs::path rel =
      scratch.lexically_relative(fs::temp_directory_path().lexically_normal());
  // One fresh lifta-jit-* entry directly inside the temp directory.
  EXPECT_EQ(rel.string().rfind("lifta-jit-", 0), 0u)
      << scratch << " is not inside " << fs::temp_directory_path();
  EXPECT_EQ(std::distance(rel.begin(), rel.end()), 1) << rel;
  EXPECT_TRUE(fs::is_directory(scratch));
}

}  // namespace
}  // namespace lifta::ocl
