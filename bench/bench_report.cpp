// One-shot Markdown report: regenerates every paper table and emits a
// single document (stdout) suitable for pasting into an issue or a wiki.
// Tables 4-9 are the catalog's table4 ... table9 specs run on the lab sweep
// engine, so they match `gridtrust_lab run tables` number for number.
//
//   --replications/--seed  engine overrides (0 replications = the specs')
//   --out DIR              write one <spec>.json manifest per paper table
//   --metrics-out          dump internal des/trust/sched metrics (JSON or CSV)
#include <filesystem>
#include <iostream>
#include <vector>

#include "common/cli.hpp"
#include "common/fs.hpp"
#include "common/table.hpp"
#include "lab/catalog.hpp"
#include "lab/engine.hpp"
#include "lab/render.hpp"
#include "net/report.hpp"
#include "obs/export.hpp"
#include "sfi/harness.hpp"
#include "trust/ets.hpp"

int main(int argc, char** argv) {
  using namespace gridtrust;
  CliParser cli("bench_report",
                "Regenerates all paper tables as one Markdown report");
  cli.add_uint("replications", 0,
               "replication-count override (0 = each spec's own)");
  cli.add_uint("seed", 20020815, "master seed override");
  cli.add_string("out", "",
                 "directory for one <spec>.json manifest per paper table");
  obs::add_metrics_flags(cli);
  cli.parse(argc, argv);
  obs::MetricsExportScope metrics(cli);

  lab::EngineOptions options;
  if (cli.was_set("seed")) options.seed = cli.get_uint("seed");
  if (cli.get_uint("replications") > 0) {
    options.replications =
        static_cast<std::size_t>(cli.get_uint("replications"));
  }
  std::vector<std::pair<const lab::SweepSpec*, lab::Manifest>> tables;
  for (const std::string& name : lab::resolve_run_names("tables")) {
    const lab::SweepSpec* spec = lab::find_spec(name);
    tables.emplace_back(spec, lab::run_sweep(*spec, options).manifest);
  }
  const std::string out_dir = cli.get_string("out");
  if (!out_dir.empty()) {
    std::filesystem::create_directories(out_dir);
    for (const auto& [spec, manifest] : tables) {
      atomic_write_file(out_dir + "/" + spec->name + ".json",
                        lab::to_json(manifest));
    }
  }

  const lab::Manifest& first = tables.front().second;
  std::cout << "# gridtrust reproduction report\n\n"
            << "Replications: " << first.replications
            << ", seed: " << first.seed
            << ".  Absolute seconds are model time; compare shapes (see "
               "EXPERIMENTS.md).\n\n";

  std::cout << trust::ets_symbol_table().to_markdown() << "\n";

  for (const auto& [name, link] :
       {std::pair{"Table 2. Secure versus regular transmission, 100 Mbps",
                  net::fast_ethernet_link()},
        std::pair{"Table 3. Secure versus regular transmission, 1000 Mbps",
                  net::gigabit_ethernet_link()}}) {
    const net::TransferModel model(net::piii_866_host(link), link);
    TextTable table = net::transfer_table(model, name,
                                          net::paper_file_sizes_mb());
    std::cout << table.to_markdown() << "\n";
  }

  {
    auto rows = sfi::measure_overheads(2, 5, 3);
    std::cout << sfi::sfi_table(rows).to_markdown() << "\n";
  }

  for (const auto& [spec, manifest] : tables) {
    std::cout << lab::paper_schedule_table(spec->title, manifest).to_markdown()
              << "\n";
  }

  std::cout << "## Headline improvements\n\n";
  for (const auto& [spec, manifest] : tables) {
    std::cout << "- " << spec->title << " (expected: " << spec->expected
              << ")\n";
    for (const std::string& line : lab::paired_summaries(manifest)) {
      std::cout << "  - " << line << "\n";
    }
  }
  std::cout << "\n";
  if (!out_dir.empty()) {
    std::cout << "Manifests: " << out_dir << "/<spec>.json\n";
  }
  return 0;
}
