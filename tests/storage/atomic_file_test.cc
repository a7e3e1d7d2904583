// AtomicSave publishes with a rename and then syncs the directory holding
// the target, which it derives from the path: "." for a bare file name,
// the parent for a nested one. A wrong derivation fails the save (the
// directory cannot be opened for the sync), so a snapshot saved through
// either shape must come back OK and reload.

#include "storage/atomic_file.h"

#include <filesystem>
#include <fstream>
#include <string>

#include <gtest/gtest.h>

#include "storage/set_store.h"

namespace ssr {
namespace {

namespace fs = std::filesystem;

Status SaveStore(const SetStore& store, const std::string& path) {
  return AtomicSave(path,
                    [&](std::ostream& out) { return store.SaveTo(out); });
}

void ExpectReloads(const fs::path& path, SetStore& saved) {
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.is_open()) << path;
  auto loaded = SetStore::Load(in);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded->size(), saved.size());
  for (SetId sid = 0; sid < saved.size(); ++sid) {
    auto got = loaded->Get(sid);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(*got, *saved.Get(sid)) << "sid " << sid;
  }
  EXPECT_FALSE(fs::exists(path.string() + ".tmp"));
}

TEST(AtomicSaveTest, BareAndNestedPathsPublishAndReload) {
  const fs::path root = fs::path(::testing::TempDir()) / "ssr_atomic_save";
  fs::remove_all(root);
  fs::create_directories(root / "nested" / "dir");

  SetStore store;
  for (ElementId i = 0; i < 20; ++i) {
    ASSERT_TRUE(store.Add({i, i + 7, i * 3 + 100}).ok());
  }

  // A bare file name: the directory to sync is the working directory.
  const fs::path cwd = fs::current_path();
  fs::current_path(root);
  const Status bare = SaveStore(store, "bare.snap");
  fs::current_path(cwd);
  ASSERT_TRUE(bare.ok()) << bare.ToString();
  ExpectReloads(root / "bare.snap", store);

  // A nested path, saved twice so the second save replaces the first.
  const fs::path nested = root / "nested" / "dir" / "store.snap";
  ASSERT_TRUE(SaveStore(SetStore(), nested.string()).ok());
  const Status replaced = SaveStore(store, nested.string());
  ASSERT_TRUE(replaced.ok()) << replaced.ToString();
  ExpectReloads(nested, store);

  fs::remove_all(root);
}

}  // namespace
}  // namespace ssr
