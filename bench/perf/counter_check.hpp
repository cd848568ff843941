// The counter gate shared by perf_ode and perf_sim (`--check=<file>`):
// compares the deterministic fields of a fresh run with a committed BENCH
// file, case by case, and fails on any difference. Wall times are not
// compared; they stay report-only.
#pragma once

#include <cstddef>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "util/error.hpp"
#include "util/json.hpp"

namespace lsm::perf {

/// Compares the `schema` and `mode` entries of the two documents, then
/// `fields` of every case in `fresh[cases_key]` with the committed case of
/// the same name. Values are compared in their serialized form, which is
/// the shortest round-trip decimal, so doubles must match bit for bit.
/// Prints every difference and returns the process exit code: 0 when all
/// fields match, 1 on any difference, 2 when the committed file cannot be
/// read or parsed.
inline int check_counters(const std::string& path, const util::Json& fresh,
                          const std::string& cases_key,
                          const std::vector<std::string>& fields) {
  util::Json committed;
  try {
    std::ifstream in(path);
    if (!in) throw util::Error("cannot open the file");
    std::ostringstream text;
    text << in.rdbuf();
    committed = util::Json::parse(text.str());
    (void)committed.at(cases_key);
  } catch (const util::Error& e) {
    std::cerr << "check: " << path << ": " << e.what() << "\n";
    return 2;
  }

  const auto value = [](const util::Json& doc, const std::string& key) {
    return doc.contains(key) ? doc.at(key).dump() : std::string("(absent)");
  };
  const auto find = [](const util::Json& cases,
                       const std::string& name) -> const util::Json* {
    for (std::size_t i = 0; i < cases.size(); ++i) {
      if (cases.item(i).at("name").as_string() == name) return &cases.item(i);
    }
    return nullptr;
  };
  std::size_t diffs = 0;
  std::size_t compared = 0;
  const auto compare = [&](const std::string& where, const std::string& want,
                           const std::string& got) {
    ++compared;
    if (want == got) return;
    ++diffs;
    std::cerr << "check: " << where << ": committed " << want << ", now "
              << got << "\n";
  };

  for (const char* key : {"schema", "mode"}) {
    compare(key, value(committed, key), value(fresh, key));
  }
  const util::Json& want_cases = committed.at(cases_key);
  const util::Json& got_cases = fresh.at(cases_key);
  for (std::size_t i = 0; i < want_cases.size(); ++i) {
    const util::Json& want = want_cases.item(i);
    const std::string name = want.at("name").as_string();
    const util::Json* got = find(got_cases, name);
    if (got == nullptr) {
      compare(name, "a case", "(absent)");
      continue;
    }
    for (const auto& field : fields) {
      compare(name + "." + field, value(want, field), value(*got, field));
    }
  }
  for (std::size_t i = 0; i < got_cases.size(); ++i) {
    const std::string name = got_cases.item(i).at("name").as_string();
    if (find(want_cases, name) == nullptr) compare(name, "(absent)", "a case");
  }

  if (diffs != 0) {
    std::cerr << "check: " << diffs << " of " << compared
              << " deterministic fields differ from " << path << "\n";
    return 1;
  }
  std::cout << "check: all " << compared << " deterministic fields match "
            << path << "\n";
  return 0;
}

}  // namespace lsm::perf
