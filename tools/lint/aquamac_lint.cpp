// aquamac-lint driver: repo-specific determinism & state-coverage static
// analysis.
//
// aquamac-lint: allow-file(lint-directive) -- the grammar examples in
// this file's documentation parse as live directives.
//
// The simulator's headline guarantees — bit-identical serial-vs-parallel
// traces, digest-verified checkpoint resume, exhaustive trace/stat
// accounting — are otherwise enforced only dynamically (TSan, digest
// oracles, the InvariantAuditor). This tool moves them left: a
// dependency-free lexer pass plus two cross-file symbol passes fail the
// build on constructs that can leak nondeterminism or let state silently
// drop out of a completeness contract.
//
// Rule passes (see docs/static-analysis.md for the full semantics):
//   rules_lexical  wall-clock, unordered-iter, rng-discipline, rng-root,
//                  raw-ns (PR 5).
//   rules_state    state-coverage, trace-kind-exhaustive,
//                  shard-shared-mutable, plus the lint-directive meta
//                  rule over the `// lint: ...` directive grammar.
//
// Suppression / registration grammar:
//   // aquamac-lint: allow(rule[,rule...]) -- reason        (line + next)
//   // aquamac-lint: allow-file(rule[,rule...]) -- reason   (whole file)
//   // lint: ckpt-skip(reason)            exempt one member from its state body
//   // lint: trace-dispatch(Enum)         register an exhaustive dispatch
//   // lint: trace-skip(kA,kB -- reason)  exempt kinds at a dispatch site
// `aquamac_lint --list-allows` prints every allow AND directive so the
// whole exemption surface is auditable in one command.
//
// Exit codes: 0 clean, 1 findings, 2 usage/IO error.

#include <algorithm>
#include <iostream>
#include <string_view>
#include <vector>

#include "lint_core.hpp"

namespace {

using namespace aquamac_lint;

int usage() {
  std::cerr << "usage: aquamac_lint [--root DIR] [--list-allows] [--dump-structure] "
               "[files-or-dirs...]\n"
            << "  With no inputs, scans DIR/src (default DIR: cwd) recursively.\n"
            << "  Directory inputs are scanned recursively; paths containing a\n"
            << "  'testdata' component are skipped (the self-test corpus is\n"
            << "  deliberately dirty).\n";
  return 2;
}

bool in_testdata(const fs::path& p) {
  for (const fs::path& part : p) {
    if (part == "testdata") return true;
  }
  return false;
}

void expand_input(const fs::path& input, std::vector<fs::path>& out) {
  if (fs::is_directory(input)) {
    for (const auto& entry : fs::recursive_directory_iterator(input)) {
      if (entry.is_regular_file() && has_source_extension(entry.path()) &&
          !in_testdata(entry.path())) {
        out.push_back(entry.path());
      }
    }
  } else {
    out.push_back(input);
  }
}

}  // namespace

int main(int argc, char** argv) {
  fs::path root = fs::current_path();
  bool list_allows = false;
  bool dump_structure = false;
  std::vector<fs::path> raw_inputs;
  for (int a = 1; a < argc; ++a) {
    const std::string_view arg = argv[a];
    if (arg == "--root") {
      if (a + 1 >= argc) return usage();
      root = argv[++a];
    } else if (arg == "--list-allows") {
      list_allows = true;
    } else if (arg == "--dump-structure") {
      dump_structure = true;
    } else if (arg == "--help" || arg == "-h") {
      usage();
      return 0;
    } else if (arg.rfind("--", 0) == 0) {
      return usage();
    } else {
      raw_inputs.emplace_back(arg);
    }
  }

  std::vector<fs::path> inputs;
  if (raw_inputs.empty()) {
    const fs::path src = root / "src";
    if (!fs::exists(src)) {
      std::cerr << "aquamac-lint: no such directory: " << src << "\n";
      return 2;
    }
    expand_input(src, inputs);
  } else {
    for (const fs::path& input : raw_inputs) {
      if (!fs::exists(input)) {
        std::cerr << "aquamac-lint: no such file or directory: " << input << "\n";
        return 2;
      }
      expand_input(input, inputs);
    }
  }
  std::sort(inputs.begin(), inputs.end());  // deterministic report order

  std::vector<SourceFile> files;
  files.reserve(inputs.size());
  for (const fs::path& path : inputs) {
    SourceFile file;
    if (!load(path, file)) {
      std::cerr << "aquamac-lint: cannot read " << path << "\n";
      return 2;
    }
    files.push_back(std::move(file));
  }

  // Cross-file symbol passes first: a header's unordered member names and
  // class inventories must be known before linting the .cpp files that
  // iterate/serialize them.
  UnorderedSymbols syms;
  Structure structure;
  for (std::size_t i = 0; i < files.size(); ++i) {
    collect_unordered_symbols(files[i], syms);
    collect_structure(files[i], i, structure);
  }

  if (dump_structure) {
    // Debug view of the structural symbol pass (not part of any gate).
    for (const ClassInfo& c : structure.classes) {
      std::cout << "class " << c.name << " (" << files[c.file_index].path.string() << ":"
                << c.line << ") members:";
      for (const MemberInfo& m : c.members) {
        std::cout << " " << m.name << (m.is_reference ? "&" : "")
                  << (m.is_pointer ? "*" : "") << (m.is_const ? "#" : "");
      }
      std::cout << " | statics:";
      for (const StaticMember& sm : c.static_members) std::cout << " " << sm.name;
      std::cout << " | methods:";
      for (const std::string& m : c.declared_methods) std::cout << " " << m;
      std::cout << "\n";
    }
    for (const EnumInfo& e : structure.enums) {
      std::cout << "enum " << e.name << " (" << e.enumerators.size() << " enumerators)\n";
    }
    for (const FunctionDef& fn : structure.functions) {
      std::cout << "fn " << fn.display() << " (" << files[fn.file_index].path.string()
                << ":" << fn.line << ")\n";
    }
    for (const GlobalVar& g : structure.globals) {
      std::cout << "global " << g.name << " (" << files[g.file_index].path.string() << ":"
                << g.line << ")\n";
    }
    return 0;
  }

  if (list_allows) {
    std::size_t n = 0;
    for (const SourceFile& file : files) {
      for (const Allow& a : file.allows) {
        std::cout << file.path.string() << ":" << a.line << ": "
                  << (a.whole_file ? "allow-file(" : "allow(");
        for (std::size_t i = 0; i < a.rules.size(); ++i) {
          std::cout << (i ? "," : "") << a.rules[i];
        }
        std::cout << ")" << (a.reason.empty() ? " [MISSING REASON]" : " -- " + a.reason)
                  << "\n";
        ++n;
      }
      for (const Directive& d : file.directives) {
        std::cout << file.path.string() << ":" << d.line << ": " << d.name << "("
                  << d.payload << ")";
        if (!d.reason.empty()) {
          std::cout << " -- " << d.reason;
        } else if (d.name == "trace-skip" ||
                   (d.name == "ckpt-skip" && d.payload.empty())) {
          std::cout << " [MISSING REASON]";
        }
        std::cout << "\n";
        ++n;
      }
    }
    std::cout << "aquamac-lint: " << n << " allowlist annotation(s)\n";
    return 0;
  }

  std::vector<Finding> findings;
  for (const SourceFile& file : files) run_lexical_rules(file, syms, findings);
  run_state_rules(files, structure, findings);

  std::sort(findings.begin(), findings.end(), [](const Finding& a, const Finding& b) {
    if (a.path != b.path) return a.path < b.path;
    if (a.line != b.line) return a.line < b.line;
    if (a.col != b.col) return a.col < b.col;
    return a.rule < b.rule;
  });
  for (const Finding& f : findings) {
    std::cout << f.path.string() << ":" << f.line << ":" << f.col << ": error: [" << f.rule
              << "] " << f.message << "\n";
  }
  std::cout << "aquamac-lint: " << findings.size() << " finding(s) in " << files.size()
            << " file(s) scanned\n";
  return findings.empty() ? 0 : 1;
}
