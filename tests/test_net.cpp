// Tests for the secure-vs-regular transfer simulator (Tables 2-3).
#include <gtest/gtest.h>

#include <vector>

#include "common/error.hpp"
#include "net/report.hpp"
#include "net/transfer_model.hpp"

namespace gridtrust::net {
namespace {

TransferModel fast_ethernet_model() {
  const LinkProfile link = fast_ethernet_link();
  return TransferModel(piii_866_host(link), link);
}

TransferModel gigabit_model() {
  const LinkProfile link = gigabit_ethernet_link();
  return TransferModel(piii_866_host(link), link);
}

TEST(TransferModel, ScpAlwaysSlowerThanRcp) {
  for (const TransferModel& model : {fast_ethernet_model(), gigabit_model()}) {
    for (const double size : paper_file_sizes_mb()) {
      EXPECT_GT(model.transfer_time_s(Megabytes(size), Protocol::kScp),
                model.transfer_time_s(Megabytes(size), Protocol::kRcp))
          << size << " MB";
    }
  }
}

TEST(TransferModel, TimesGrowWithSize) {
  const TransferModel model = fast_ethernet_model();
  double prev_rcp = 0.0;
  double prev_scp = 0.0;
  for (const double size : paper_file_sizes_mb()) {
    const double rcp = model.transfer_time_s(Megabytes(size), Protocol::kRcp);
    const double scp = model.transfer_time_s(Megabytes(size), Protocol::kScp);
    EXPECT_GT(rcp, prev_rcp);
    EXPECT_GT(scp, prev_scp);
    prev_rcp = rcp;
    prev_scp = scp;
  }
}

TEST(TransferModel, OverheadWithinSanityBand) {
  for (const TransferModel& model : {fast_ethernet_model(), gigabit_model()}) {
    for (const double size : paper_file_sizes_mb()) {
      const double pct = model.security_overhead_pct(Megabytes(size));
      EXPECT_GT(pct, 0.0);
      EXPECT_LT(pct, 100.0);
    }
  }
}

TEST(TransferModel, FastEthernetBulkMatchesPaperShape) {
  // Paper Table 2: 1000 MB rcp 97 s, scp 155 s, overhead ~37 %.
  const TransferModel model = fast_ethernet_model();
  const double rcp = model.transfer_time_s(Megabytes(1000), Protocol::kRcp);
  const double scp = model.transfer_time_s(Megabytes(1000), Protocol::kScp);
  EXPECT_NEAR(rcp, 97.0, 15.0);
  EXPECT_NEAR(scp, 155.0, 25.0);
  EXPECT_NEAR(model.security_overhead_pct(Megabytes(1000)), 37.0, 8.0);
}

TEST(TransferModel, GigabitBulkMatchesPaperShape) {
  // Paper Table 3: 1000 MB rcp 46 s, scp 138 s, overhead ~67 %.
  const TransferModel model = gigabit_model();
  const double rcp = model.transfer_time_s(Megabytes(1000), Protocol::kRcp);
  const double scp = model.transfer_time_s(Megabytes(1000), Protocol::kScp);
  EXPECT_NEAR(rcp, 46.0, 8.0);
  EXPECT_NEAR(scp, 138.0, 15.0);
  EXPECT_NEAR(model.security_overhead_pct(Megabytes(1000)), 67.0, 6.0);
}

TEST(TransferModel, EveryRowOfTablesTwoAndThree) {
  // Per size: rcp s, scp s and overhead % as bench_table2_net100 and
  // bench_table3_net1000 print them, to their two decimals.
  struct Row {
    double size_mb, rcp_s, scp_s, overhead_pct;
  };
  const std::vector<double> sizes = paper_file_sizes_mb();
  const auto check_table = [&](const char* table, const TransferModel& model,
                               const std::vector<Row>& rows) {
    ASSERT_EQ(rows.size(), sizes.size()) << table;
    double previous_overhead = 100.0;
    for (std::size_t i = 0; i < sizes.size(); ++i) {
      SCOPED_TRACE(::testing::Message() << table << ", " << sizes[i] << " MB");
      const Megabytes size(sizes[i]);
      EXPECT_EQ(sizes[i], rows[i].size_mb);
      EXPECT_NEAR(model.transfer_time_s(size, Protocol::kRcp), rows[i].rcp_s,
                  0.005);
      EXPECT_NEAR(model.transfer_time_s(size, Protocol::kScp), rows[i].scp_s,
                  0.005);
      const double overhead = model.security_overhead_pct(size);
      EXPECT_NEAR(overhead, rows[i].overhead_pct, 0.005);
      // The fixed handshake's share shrinks as the file grows.
      EXPECT_LT(overhead, previous_overhead);
      previous_overhead = overhead;
    }
  };
  check_table("Table 2", fast_ethernet_model(),
              {{1, 0.25, 0.74, 65.88},
               {10, 1.12, 2.06, 45.70},
               {100, 9.79, 15.29, 35.95},
               {500, 48.35, 74.09, 34.74},
               {1000, 96.54, 147.58, 34.58}});
  check_table("Table 3", gigabit_model(),
              {{1, 0.16, 0.64, 75.56},
               {10, 0.57, 1.90, 70.11},
               {100, 4.66, 14.40, 67.67},
               {500, 22.84, 70.00, 67.37},
               {1000, 45.57, 139.49, 67.33}});
  // The cipher, not the wire, bounds scp: the faster link raises the
  // overhead at every size.
  for (const double size : sizes) {
    EXPECT_GT(gigabit_model().security_overhead_pct(Megabytes(size)),
              fast_ethernet_model().security_overhead_pct(Megabytes(size)))
        << size << " MB";
  }
}

TEST(TransferModel, SecurityNegatesTheFasterNetwork) {
  // The experiment's headline: scp barely improves on the gigabit link
  // because the cipher, not the wire, is the bottleneck.
  const double scp_100 =
      fast_ethernet_model().transfer_time_s(Megabytes(1000), Protocol::kScp);
  const double scp_1000 =
      gigabit_model().transfer_time_s(Megabytes(1000), Protocol::kScp);
  const double rcp_100 =
      fast_ethernet_model().transfer_time_s(Megabytes(1000), Protocol::kRcp);
  const double rcp_1000 =
      gigabit_model().transfer_time_s(Megabytes(1000), Protocol::kRcp);
  const double rcp_speedup = rcp_100 / rcp_1000;
  const double scp_speedup = scp_100 / scp_1000;
  EXPECT_GT(rcp_speedup, 2.0);   // plain copy benefits from the faster link
  EXPECT_LT(scp_speedup, 1.3);   // secure copy barely does
}

TEST(TransferModel, OverheadHigherOnGigabitForBulk) {
  const Megabytes size(1000);
  EXPECT_GT(gigabit_model().security_overhead_pct(size),
            fast_ethernet_model().security_overhead_pct(size));
}

TEST(TransferModel, HandshakeDominatesSmallTransfers) {
  const TransferModel model = gigabit_model();
  const TransferResult r = model.transfer(Megabytes(1), Protocol::kScp);
  EXPECT_GT(r.handshake_s / r.duration_s, 0.5);
  const TransferResult big = model.transfer(Megabytes(1000), Protocol::kScp);
  EXPECT_LT(big.handshake_s / big.duration_s, 0.01);
}

TEST(TransferModel, SteadyRateMatchesBottleneck) {
  const TransferModel model = gigabit_model();
  const TransferResult scp = model.transfer(Megabytes(100), Protocol::kScp);
  // Cipher-bound: cipher 7.3 MB/s combined with NIC processing.
  EXPECT_LT(scp.steady_rate_mb_s, 7.5);
  EXPECT_GT(scp.steady_rate_mb_s, 6.5);
  const TransferResult rcp = model.transfer(Megabytes(100), Protocol::kRcp);
  // Disk-bound at 22 MB/s.
  EXPECT_NEAR(rcp.steady_rate_mb_s, 22.0, 1.0);
}

TEST(TransferModel, ChunkGranularityBarelyMattersForBulk) {
  const TransferModel model = fast_ethernet_model();
  const double coarse =
      model.transfer(Megabytes(500), Protocol::kScp, 4.0).duration_s;
  const double fine =
      model.transfer(Megabytes(500), Protocol::kScp, 0.25).duration_s;
  EXPECT_NEAR(coarse / fine, 1.0, 0.05);
}

TEST(TransferModel, PartialFinalChunkAccounted) {
  const TransferModel model = fast_ethernet_model();
  const TransferResult r = model.transfer(Megabytes(2.5), Protocol::kRcp);
  EXPECT_EQ(r.chunks, 3u);
  const double t2 = model.transfer_time_s(Megabytes(2.0), Protocol::kRcp);
  const double t3 = model.transfer_time_s(Megabytes(3.0), Protocol::kRcp);
  EXPECT_GT(r.duration_s, t2);
  EXPECT_LT(r.duration_s, t3);
}

TEST(TransferModel, Validation) {
  const TransferModel model = fast_ethernet_model();
  EXPECT_THROW(model.transfer(Megabytes(0), Protocol::kRcp),
               PreconditionError);
  EXPECT_THROW(model.transfer(Megabytes(1), Protocol::kRcp, 0.0),
               PreconditionError);
  HostProfile bad_host;
  bad_host.cipher = MegabytesPerSecond(0.0);
  EXPECT_THROW(TransferModel(bad_host, fast_ethernet_link()),
               PreconditionError);
  LinkProfile bad_link;
  bad_link.payload_efficiency = 0.0;
  EXPECT_THROW(TransferModel(HostProfile{}, bad_link), PreconditionError);
}

TEST(TransferModel, ProtocolNames) {
  EXPECT_EQ(to_string(Protocol::kRcp), "rcp");
  EXPECT_EQ(to_string(Protocol::kScp), "scp");
}

TEST(TransferModel, CipherPresets) {
  EXPECT_NEAR(cipher_throughput("3des").value(), 7.3, 1e-9);
  EXPECT_GT(cipher_throughput("blowfish").value(),
            cipher_throughput("3des").value());
  EXPECT_GT(cipher_throughput("arcfour").value(),
            cipher_throughput("blowfish").value());
  EXPECT_THROW(cipher_throughput("rot13"), PreconditionError);
  EXPECT_EQ(known_ciphers().size(), 3u);
}

TEST(TransferModel, FasterCipherShrinksOverheadUntilDiskBound) {
  const LinkProfile link = gigabit_ethernet_link();
  double prev_overhead = 1e9;
  for (const std::string& cipher : known_ciphers()) {
    HostProfile host = piii_866_host(link);
    host.cipher = cipher_throughput(cipher);
    const TransferModel model(host, link);
    const double overhead = model.security_overhead_pct(Megabytes(1000));
    EXPECT_LT(overhead, prev_overhead) << cipher;
    prev_overhead = overhead;
  }
  // arcfour outruns the 22 MB/s disk: the bulk overhead collapses.
  EXPECT_LT(prev_overhead, 5.0);
}

TEST(Report, TableHasPaperLayout) {
  const TextTable table =
      transfer_table(fast_ethernet_model(), "Table 2.", paper_file_sizes_mb());
  EXPECT_EQ(table.row_count(), 5u);
  const std::string out = table.to_string();
  EXPECT_NE(out.find("File size/MB"), std::string::npos);
  EXPECT_NE(out.find("Using rcp/(sec)"), std::string::npos);
  EXPECT_NE(out.find("Overhead"), std::string::npos);
  EXPECT_NE(out.find("1,000"), std::string::npos);
}

TEST(Report, PaperFileSizes) {
  EXPECT_EQ(paper_file_sizes_mb(),
            (std::vector<double>{1, 10, 100, 500, 1000}));
}

}  // namespace
}  // namespace gridtrust::net
