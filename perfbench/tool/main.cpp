// perfbench_tool: the compiled half of the benchmark (run.py drives it).
//
//   perfbench_tool grid                       explore_cli grid flags, one per line
//   perfbench_tool archive-best --dir D       best: line of D's archive.msca
//   perfbench_tool load --port P --seed S --seconds T
//   perfbench_tool trace-sweep --dir D --report PREFIX --spans FILE
//   perfbench_tool trace-search --dir D --seed S --prep-budget N --budget M --spans FILE
//   perfbench_tool trace-serve --dir D --seed S --points N --analytic M --spans FILE

#include <iostream>
#include <string>

#include "explore/report.hpp"
#include "grid.hpp"
#include "search/archive.hpp"
#include "search/run_log.hpp"
#include "tool.hpp"

int main(int argc, char** argv) try {
  if (argc < 2) {
    std::cerr << "usage: perfbench_tool grid|archive-best|load|trace-sweep|trace-search|"
                 "trace-serve [--key value ...]\n";
    return 2;
  }
  const std::string command = argv[1];
  const perfbench::Args args(argc, argv, 2);
  if (command == "grid") {
    for (const std::string& word : perfbench::grid_args()) {
      std::cout << word << "\n";
    }
    return 0;
  }
  if (command == "archive-best") {
    using namespace mergescale;
    const auto reader = search::ArchiveReader::open(
        search::RunLog::archive_path(args.str("dir")));
    const auto best = reader.best();
    perfbench::JsonObject out;
    out.str("best", best ? explore::best_line(*best) : std::string());
    std::cout << out.text() << "\n";
    return best ? 0 : 1;
  }
  if (command == "load") return perfbench::run_load(args);
  if (command == "trace-sweep") return perfbench::run_trace_sweep(args);
  if (command == "trace-search") return perfbench::run_trace_search(args);
  if (command == "trace-serve") return perfbench::run_trace_serve(args);
  std::cerr << "perfbench_tool: unknown command " << command << "\n";
  return 2;
} catch (const std::exception& e) {
  std::cerr << "perfbench_tool: " << e.what() << "\n";
  return 1;
}
