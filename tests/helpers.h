// Shared test utilities: assemble-and-run harnesses.
#ifndef OMOS_TESTS_HELPERS_H_
#define OMOS_TESTS_HELPERS_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/linker/link.h"
#include "src/linker/module.h"
#include "src/os/kernel.h"
#include "src/os/loader.h"
#include "src/vasm/assembler.h"
#include "src/workloads/workloads.h"

namespace omos {

// gtest-friendly unwrap: ASSERT_OK(result) aborts the test with the error.
#define ASSERT_OK(expr)                                          \
  do {                                                           \
    const auto& omos_assert_ok_ = (expr);                        \
    ASSERT_TRUE(omos_assert_ok_.ok()) << omos_assert_ok_.error().ToString(); \
  } while (false)

#define EXPECT_OK(expr)                                          \
  do {                                                           \
    const auto& omos_expect_ok_ = (expr);                        \
    EXPECT_TRUE(omos_expect_ok_.ok()) << omos_expect_ok_.error().ToString(); \
  } while (false)

// Unwrap a Result into `lhs`, failing the test on error.
#define ASSERT_OK_AND_ASSIGN(lhs, expr)                       \
  auto OMOS_CONCAT_(result_, __LINE__) = (expr);              \
  ASSERT_TRUE(OMOS_CONCAT_(result_, __LINE__).ok())           \
      << OMOS_CONCAT_(result_, __LINE__).error().ToString();  \
  lhs = std::move(OMOS_CONCAT_(result_, __LINE__)).value()

// Workloads shrunk to a few functions per library: the programs and
// outputs keep their shape, the builds stay fast.
inline WorkloadParams TinyWorkloadParams() {
  WorkloadParams params;
  params.libc_filler = 12;
  params.alpha_functions = 6;
  params.libm_functions = 4;
  params.libl_functions = 4;
  params.libcpp_functions = 4;
  params.codegen_files = 2;
  params.codegen_funcs_per_file = 4;
  return params;
}

struct RunOutcome {
  int exit_code = 0;
  std::string output;
  uint64_t user_cycles = 0;
  uint64_t sys_cycles = 0;
  uint64_t instructions = 0;
};

// Assemble `source` as a standalone program (must define _start), link it at
// a default base, load it into a fresh task and run it to completion.
inline Result<RunOutcome> AssembleAndRun(Kernel& kernel, const std::string& source,
                                         std::vector<std::string> args = {}) {
  OMOS_TRY(ObjectFile object, Assemble(source, "test.o"));
  Module module = Module::FromObject(std::make_shared<const ObjectFile>(std::move(object)));
  LayoutSpec layout;
  layout.entry_symbol = "_start";
  OMOS_TRY(LinkedImage image, LinkImage(module, layout, "test"));
  Task& task = kernel.CreateTask("test");
  OMOS_TRY_VOID(MapLinkedImage(kernel, task, image, ""));
  OMOS_TRY_VOID(StartTask(kernel, task, image.entry, args));
  OMOS_TRY_VOID(kernel.RunTask(task));
  RunOutcome outcome;
  outcome.exit_code = task.exit_code();
  outcome.output = task.output();
  outcome.user_cycles = task.user_cycles();
  outcome.sys_cycles = task.sys_cycles();
  outcome.instructions = task.instructions_retired();
  return outcome;
}

// Run an already-linked image.
inline Result<RunOutcome> RunImage(Kernel& kernel, const LinkedImage& image,
                                   std::vector<std::string> args = {}) {
  Task& task = kernel.CreateTask(image.name);
  OMOS_TRY_VOID(MapLinkedImage(kernel, task, image, ""));
  OMOS_TRY_VOID(StartTask(kernel, task, image.entry, args));
  OMOS_TRY_VOID(kernel.RunTask(task));
  RunOutcome outcome;
  outcome.exit_code = task.exit_code();
  outcome.output = task.output();
  outcome.user_cycles = task.user_cycles();
  outcome.sys_cycles = task.sys_cycles();
  outcome.instructions = task.instructions_retired();
  return outcome;
}

// An image's text layout: each text symbol's offset from the lowest one,
// with its name, in address order. Two links of one module at different
// bases share a layout, while their bytes differ in every absolute address.
using TextLayout = std::vector<std::pair<uint32_t, std::string>>;
inline TextLayout TextLayoutOf(const std::vector<ImageSymbol>& symbols) {
  TextLayout layout;
  for (const ImageSymbol& sym : symbols) {
    if (sym.section == SectionKind::kText) {
      layout.emplace_back(sym.addr, sym.name);
    }
  }
  std::sort(layout.begin(), layout.end());
  uint32_t origin = layout.empty() ? 0 : layout.front().first;
  for (auto& entry : layout) {
    entry.first -= origin;
  }
  return layout;
}

}  // namespace omos

#endif  // OMOS_TESTS_HELPERS_H_
