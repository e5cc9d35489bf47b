#include "util/replace_file.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <ostream>
#include <stdexcept>
#include <string>

#include "util/error.h"

namespace tradeplot::util {
namespace {

namespace fs = std::filesystem;

class ReplaceFile : public testing::Test {
 protected:
  void SetUp() override {
    std::string tmpl = (fs::temp_directory_path() / "tp_replace_file_XXXXXX").string();
    ASSERT_NE(::mkdtemp(tmpl.data()), nullptr);
    dir_ = tmpl;
    path_ = (dir_ / "state.bin").string();
  }
  void TearDown() override { fs::remove_all(dir_); }

  static std::string slurp(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
  }

  fs::path dir_;
  std::string path_;
};

TEST_F(ReplaceFile, WritesTheNewContentsAndLeavesNoTmp) {
  replace_file(path_, [](std::ostream& out) { out << "first"; });
  replace_file(path_, [](std::ostream& out) { out << "second"; });
  EXPECT_EQ(slurp(path_), "second");
  EXPECT_FALSE(fs::exists(path_ + ".tmp"));
}

TEST_F(ReplaceFile, WriterThrowingMidWriteLeavesTheOldFileByteIdentical) {
  std::string old(8192, '\0');
  for (std::size_t i = 0; i < old.size(); ++i) old[i] = static_cast<char>(i * 31 + 7);
  replace_file(path_, [&](std::ostream& out) { out.write(old.data(), 8192); });
  ASSERT_EQ(slurp(path_), old);

  EXPECT_THROW(replace_file(path_,
                            [](std::ostream& out) {
                              out << std::string(100000, 'x');
                              out.flush();  // the partial bytes reach the tmp file
                              throw std::runtime_error("writer failed");
                            }),
               std::runtime_error);
  EXPECT_EQ(slurp(path_), old);
  EXPECT_FALSE(fs::exists(path_ + ".tmp"));
}

TEST_F(ReplaceFile, UnwritableDirectoryIsAnIoError) {
  const std::string missing = (dir_ / "no-such-dir" / "state.bin").string();
  EXPECT_THROW(replace_file(missing, [](std::ostream& out) { out << "x"; }), IoError);
  EXPECT_FALSE(fs::exists(missing));
}

}  // namespace
}  // namespace tradeplot::util
