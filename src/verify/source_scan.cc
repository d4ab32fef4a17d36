#include "verify/source_scan.h"

#include <algorithm>
#include <regex>

#include "util/fs_util.h"

namespace embsr {
namespace verify {

namespace {

std::vector<std::string> MatchAll(const std::string& text,
                                  const std::regex& re) {
  std::vector<std::string> names;
  for (auto it = std::sregex_iterator(text.begin(), text.end(), re);
       it != std::sregex_iterator(); ++it) {
    names.push_back((*it)[1].str());
  }
  std::sort(names.begin(), names.end());
  names.erase(std::unique(names.begin(), names.end()), names.end());
  return names;
}

Result<std::vector<std::string>> ScanFile(
    const std::string& path,
    std::vector<std::string> (*scan)(const std::string&)) {
  Result<std::string> source = ReadFileToString(path);
  if (!source.ok()) return source.status();
  return scan(source.value());
}

}  // namespace

std::vector<std::string> DeclaredLayerNames(const std::string& layers_header) {
  static const std::regex kLayerDecl(R"(^class (\w+) : public Module)",
                                     std::regex::multiline);
  return MatchAll(layers_header, kLayerDecl);
}

std::vector<std::string> DeclaredTensorKernelNames(
    const std::string& tensor_header) {
  // House style: free kernels are declared at line start returning Tensor,
  // void (in-place scatter) or float (scalar reductions). Member functions
  // are indented, so the line anchor skips the Tensor class body.
  static const std::regex kKernelDecl(R"(^(?:Tensor|void|float) (\w+)\()",
                                      std::regex::multiline);
  return MatchAll(tensor_header, kKernelDecl);
}

std::vector<std::string> CoveredKernelEquivNames(
    const std::string& kernel_equiv_test_cc) {
  // The trailing semicolon distinguishes marker *uses* from the macro's own
  // #define line and from prose mentions in comments.
  static const std::regex kCoverMarker(R"(EMBSR_KERNEL_EQUIV\((\w+)\);)");
  return MatchAll(kernel_equiv_test_cc, kCoverMarker);
}

Result<std::vector<std::string>> ScanLayerNames(const std::string& repo_root) {
  return ScanFile(repo_root + "/src/nn/layers.h", &DeclaredLayerNames);
}

Result<std::vector<std::string>> ScanTensorKernelNames(
    const std::string& repo_root) {
  return ScanFile(repo_root + "/src/tensor/tensor.h",
                  &DeclaredTensorKernelNames);
}

Result<std::vector<std::string>> ScanKernelEquivCoverage(
    const std::string& repo_root) {
  return ScanFile(repo_root + "/tests/kernel_equiv_test.cc",
                  &CoveredKernelEquivNames);
}

}  // namespace verify
}  // namespace embsr
