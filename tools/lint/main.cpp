// findep-lint CLI. Exit codes: 0 clean, 1 findings, 2 usage/IO error.
//
//   findep-lint [--list-rules] PATH...
//
// PATHs are files or directories (recursed for .h/.hpp/.cpp/.cc), linted
// with the per-repo defaults of lint::Options; tests/test_lint.cpp sets
// other options in-process. CI runs:
//
//   findep-lint src bench tests
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "lint/lint.h"

namespace {

void print_usage(std::ostream& out) {
  out << "usage: findep-lint [options] PATH...\n"
         "\n"
         "options:\n"
         "  --list-rules             print the rule catalog and exit\n";
}

}  // namespace

int main(int argc, char** argv) {
  const findep::lint::Options options;
  std::vector<std::string> paths;

  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--help") == 0 || std::strcmp(arg, "-h") == 0) {
      print_usage(std::cout);
      return 0;
    }
    if (std::strcmp(arg, "--list-rules") == 0) {
      for (const auto& rule : findep::lint::rule_catalog()) {
        std::cout << rule.name << "\n    " << rule.summary << "\n";
      }
      return 0;
    }
    if (arg[0] == '-') {
      std::cerr << "error: unknown option '" << arg << "'\n";
      print_usage(std::cerr);
      return 2;
    }
    paths.push_back(arg);
  }

  if (paths.empty()) {
    std::cerr << "error: no paths given\n";
    print_usage(std::cerr);
    return 2;
  }

  std::vector<std::string> files;
  try {
    files = findep::lint::collect_sources(paths, options);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 2;
  }

  const std::vector<findep::lint::Finding> findings =
      findep::lint::run_lint(files, options);
  for (const auto& finding : findings) {
    std::cout << findep::lint::format_finding(finding) << '\n';
  }
  std::cerr << "findep-lint: " << files.size() << " file(s), "
            << findings.size() << " finding(s)\n";
  return findings.empty() ? 0 : 1;
}
