#ifndef EMBSR_VERIFY_SOURCE_SCAN_H_
#define EMBSR_VERIFY_SOURCE_SCAN_H_

#include <string>
#include <vector>

#include "util/status.h"

namespace embsr {
namespace verify {

/// Lightweight static scans of the repo's own sources, for the two
/// declaration lists no table holds: nn layers (each needs a gradcheck case
/// in verify/cases.cc) and tensor kernels (each needs an equivalence case in
/// tests/kernel_equiv_test.cc). Ops and zoo models need no scan: their
/// tables (ag::OpTable, ZooModelNames) are the declaration lists.
///
/// The scanners are deliberately line-regex simple: they parse this repo's
/// house style, not arbitrary C++.

/// Names of layer classes declared in nn/layers.h, i.e. every
/// `class Name : public Module`. Sorted, unique.
std::vector<std::string> DeclaredLayerNames(const std::string& layers_header);

/// Names of tensor kernels declared as free functions in tensor/tensor.h,
/// i.e. every `Tensor Name(...)`, `void Name(...)` or `float Name(...)` at
/// line start. Sorted, unique.
std::vector<std::string> DeclaredTensorKernelNames(
    const std::string& tensor_header);

/// Kernel names covered by tests/kernel_equiv_test.cc, i.e. every
/// `EMBSR_KERNEL_EQUIV(Name)` coverage marker. Sorted, unique.
std::vector<std::string> CoveredKernelEquivNames(
    const std::string& kernel_equiv_test_cc);

/// Convenience: reads and scans the named files under `repo_root`
/// (src/nn/layers.h, src/tensor/tensor.h, tests/kernel_equiv_test.cc).
Result<std::vector<std::string>> ScanLayerNames(const std::string& repo_root);
Result<std::vector<std::string>> ScanTensorKernelNames(
    const std::string& repo_root);
Result<std::vector<std::string>> ScanKernelEquivCoverage(
    const std::string& repo_root);

}  // namespace verify
}  // namespace embsr

#endif  // EMBSR_VERIFY_SOURCE_SCAN_H_
