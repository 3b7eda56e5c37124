package repro.benchgen

import java.nio.file.Files
import repro.{Oracle, SparkSpec, SynthData}
import repro.core.{GenT, Metrics}
import repro.discovery.{SetSimilarity, SetSimilaritySpec}
import repro.lake.Lake

/** TP-TR benchmark generator + a Small-scale end-to-end Gen-T smoke test. */
class TpTrSpec extends SparkSpec {

  private lazy val bench: TpTr.Benchmark = {
    spark.conf.set("spark.sql.shuffle.partitions", "8")
    TpTr.build(spark, Files.createTempDirectory("tptr").toString, TpTr.Small)
  }

  test("lake has 32 tables: 4 versions of each of the 8 TPC-H-lite tables") {
    assert(bench.repo.tableNames.size == 32)
    val bases = Seq("lineitem", "orders", "customer", "part",
      "supplier", "partsupp", "nation", "region")
    bases.foreach { b =>
      Seq("n1", "n2", "e1", "e2").foreach(v =>
        assert(bench.repo.exists(s"${b}_$v"), s"missing ${b}_$v"))
    }
  }

  test("there are 26 source tables with declared keys") {
    assert(bench.sources.size == 26)
    bench.sources.foreach(s => assert(s.keys.nonEmpty))
  }

  test("source tables are small at Small scale (paper: avg 27 rows)") {
    val counts = bench.sources.map(_.df.count())
    assert(counts.forall(_ > 0), s"empty source: ${bench.sources.map(_.name).zip(counts)}")
    assert(counts.max <= 100, s"too large for Small: ${counts.max}")
  }

  test("source keys are unique and non-null (reclamation precondition)") {
    bench.sources.foreach { s =>
      val n = s.df.count()
      val k = s.df.select(s.keys.map(org.apache.spark.sql.functions.col): _*)
      assert(k.na.drop().count() == n, s"${s.name}: null keys")
      assert(k.distinct().count() == n, s"${s.name}: duplicate keys")
    }
  }

  test("integrating sets list the four versions of each touched base table") {
    val is = bench.intSets("q12_orders_customer")
    assert(is.toSet == Set("orders_n1", "orders_n2", "orders_e1", "orders_e2",
      "customer_n1", "customer_n2", "customer_e1", "customer_e2"))
  }

  test("q12 source equals the DuckDB join over the originals — Oracle") {
    val originals = SynthData.allTables(spark, TpTr.Small.sf)
      .map { case (k, v) => k -> Lake.stringify(v) }
    val q12 = TpTr.queries(TpTr.Small).find(_.name == "q12_orders_customer").get
    Oracle.assertEquivalent(
      q12.build(originals),
      """SELECT o_orderkey, o_custkey, o_totalprice, c_nationkey, c_mktsegment
        |FROM orders JOIN customer ON o_custkey = c_custkey
        |WHERE CAST(o_orderkey AS INT) <= 30""".stripMargin,
      "orders" -> originals("orders"), "customer" -> originals("customer"))
  }

  test("q22 full-outer source contains null cells (exercises labeled nulls)") {
    val q22 = bench.sources.find(_.name == "q22_orders_fullouter_customer").get
    val nulls = q22.df.collect().flatMap(_.toSeq).count(_ == null)
    assert(nulls > 0)
  }

  test("benchmark build is idempotent (reuses the on-disk lake)") {
    val again = TpTr.build(spark, bench.repo.root, TpTr.Small)
    assert(again.repo.tableNames == bench.repo.tableNames)
  }

  test("Gen-T perfectly reclaims a single-table source (q01) at Small scale") {
    val src = bench.sources.find(_.name == "q01_customer").get
    val r = GenT.reclaim(bench.repo, bench.index, src, spark)
    val s = Metrics.all(r.reclaimed, src)
    assert(s.recall >= 0.99, s"$s orig=${r.originating}")
    assert(s.precision >= 0.99, s"$s orig=${r.originating}")
    // Originating tables should be the nullified versions, not erroneous.
    assert(!r.originating.exists(_.contains("_e")), s"got ${r.originating}")
  }

  test("Gen-T reclaims a join source (q12) with high recall at Small scale") {
    val src = bench.sources.find(_.name == "q12_orders_customer").get
    val r = GenT.reclaim(bench.repo, bench.index, src, spark)
    val s = Metrics.all(r.reclaimed, src)
    assert(s.recall >= 0.5, s"$s orig=${r.originating}")
    assert(s.eis >= 0.7, s"$s")
  }

  // Set Similarity's candidate lists as (table, lake column → source column
  // mapping, score): a gate for changes to how discovery runs, which must
  // leave them as they are. q02's candidates and q16's part_n2, part_e1 and
  // part_n1 are accepted only after one or two verification repair rounds.
  private def ids(cols: String*): Map[String, String] = cols.map(c => c -> c).toMap
  private val pinnedCandidates: Seq[(String, Seq[(String, Map[String, String], Double)])] = Seq(
    "q01_customer" -> Seq(
      ("customer_n2", ids("c_acctbal", "c_custkey", "c_mktsegment", "c_nationkey"), 0.47775784157363105),
      ("customer_e2", ids("c_acctbal", "c_custkey", "c_mktsegment", "c_nationkey"), 0.296969696969697),
      ("customer_e1", ids("c_acctbal", "c_custkey", "c_mktsegment", "c_nationkey"), 0.29518734643734645),
      ("customer_n1", ids("c_acctbal", "c_custkey", "c_mktsegment", "c_nationkey"), 0.14222488038277512)),
    "q02_orders" -> Seq(
      ("orders_e2", ids("o_custkey", "o_orderdate", "o_orderkey", "o_orderstatus", "o_totalprice"), 0.5887038626609442),
      ("orders_e1", ids("o_custkey", "o_orderdate", "o_orderkey", "o_orderstatus", "o_totalprice"), 0.5534711409395973),
      ("orders_n2", ids("o_custkey", "o_orderdate", "o_orderkey", "o_orderstatus", "o_totalprice"), 0.32834006116207953),
      ("orders_n1", ids("o_custkey", "o_orderdate", "o_orderkey", "o_orderstatus", "o_totalprice"), 0.22500642791551884)),
    "q15_partsupp_supplier" -> Seq(
      ("partsupp_e2", ids("ps_availqty", "ps_partkey", "ps_suppkey"), 0.5009229957805907),
      ("supplier_e1", ids("s_acctbal", "s_nationkey") ++ Map("s_suppkey" -> "ps_suppkey"), 0.3333333333333333),
      ("partsupp_e1", ids("ps_availqty", "ps_partkey", "ps_suppkey"), 0.22875),
      ("supplier_e2", ids("s_acctbal", "s_nationkey") ++ Map("s_suppkey" -> "ps_suppkey"), 0.13333333333333333),
      ("partsupp_n2", ids("ps_availqty", "ps_partkey", "ps_suppkey"), 0.015952093397745577),
      ("partsupp_n1", ids("ps_availqty", "ps_partkey", "ps_suppkey"), -0.017665770609318992),
      ("supplier_n1", ids("s_acctbal", "s_nationkey") ++ Map("s_suppkey" -> "ps_suppkey"), -0.08888888888888886),
      ("customer_n1", Map("c_custkey" -> "ps_partkey", "c_nationkey" -> "s_nationkey"), -0.09999999999999998),
      ("supplier_n2", ids("s_acctbal", "s_nationkey") ++ Map("s_suppkey" -> "ps_suppkey"), -0.3)),
    "q16_partsupp_part" -> Seq(
      ("partsupp_e2", ids("ps_partkey", "ps_suppkey", "ps_supplycost"), 0.4770833333333333),
      ("part_e2", ids("p_type") ++ Map("p_partkey" -> "ps_partkey", "p_size" -> "ps_suppkey"), 0.4110576923076923),
      ("part_n2", ids("p_retailprice", "p_type"), 0.3875),
      ("part_e1", ids("p_retailprice", "p_type"), 0.3825),
      ("part_n1", ids("p_retailprice", "p_type"), 0.2657738095238095),
      ("partsupp_n2", ids("ps_partkey", "ps_suppkey", "ps_supplycost"), 0.22916666666666666),
      ("partsupp_e1", ids("ps_partkey", "ps_suppkey", "ps_supplycost"), 0.09250000000000001),
      ("partsupp_n1", ids("ps_partkey", "ps_suppkey", "ps_supplycost"), -0.058304311774461014))
  )

  test("Set Similarity returns the pinned candidate lists") {
    pinnedCandidates.foreach { case (name, want) =>
      val src = bench.sources.find(_.name == name).get
      val got = SetSimilarity.findCandidates(bench.repo, bench.index, src, spark)
      assert(got.map(c => (c.table, c.mapping)) == want.map(w => (w._1, w._2)), name)
      got.zip(want).foreach { case (c, (_, _, score)) =>
        assert(math.abs(c.score - score) <= 1e-12, s"$name ${c.table}: ${c.score} vs $score")
      }
    }
  }

  test("Set Similarity carries each keyed candidate's rows with one of S's keys") {
    pinnedCandidates.foreach { case (name, _) =>
      val src = bench.sources.find(_.name == name).get
      val keyed = SetSimilaritySpec.keyed(
        SetSimilarity.findCandidates(bench.repo, bench.index, src, spark), src)
      assert(keyed.nonEmpty, name)
      assert(SetSimilaritySpec.carriedMismatches(bench.repo, keyed, src).isEmpty, name)
    }
  }

  // Gen-T's originating tables (in pick order) and scores on every source
  // whose traversal picks an expanded (`a+b`) table or whose integration
  // folds more than one InnerUnion group: a gate for changes to how
  // traversal and integration run, which must leave them as they are.
  private val pinnedOutputs: Seq[(String, Seq[String], Double, Double, Double)] = Seq(
    ("q12_orders_customer", Seq("orders_n2", "customer_n1+orders_n1", "customer_n2+orders_n2",
      "customer_n2+orders_n1", "customer_n1+orders_n2", "orders_n1"),
      1.0, 1.0, 1.0),
    ("q14_lineitem_part", Seq("lineitem_n1", "part_n1+lineitem_n2", "part_n1+lineitem_n1",
      "lineitem_n2", "part_e2+lineitem_n2", "part_e1+lineitem_n1", "part_e2+lineitem_n1"),
      0.4827586206896552, 0.1917808219178082, 0.9008620689655172),
    ("q15_partsupp_supplier", Seq("supplier_n1+partsupp_e1", "supplier_n2+partsupp_e1",
      "supplier_n1+partsupp_e2", "supplier_n2+partsupp_e2"),
      0.84375, 0.4909090909090909, 0.9479166666666667),
    ("q16_partsupp_part", Seq("partsupp_n2", "partsupp_n1", "part_n1+part_e2"),
      0.0, 0.0, 0.6718750000000001),
    ("q17_customer_nation", Seq("customer_n1", "customer_n2", "nation_n1+customer_n1",
      "nation_n1+customer_n2", "nation_n2+customer_n2", "nation_n2+customer_n1"),
      1.0, 1.0, 1.0),
    ("q18_supplier_nation", Seq("supplier_n1", "nation_n2+supplier_n1", "supplier_n2",
      "nation_n1+customer_n2"),
      0.8, 0.6666666666666666, 0.96),
    ("q19_nation_region", Seq("nation_n2", "nation_n1", "region_n2+nation_e2", "region_e2+nation_e1"),
      0.36, 0.23684210526315788, 0.8933333333333331),
    ("q20_orders_leftjoin_customer", Seq("orders_n1", "orders_n2", "customer_n2+orders_n2",
      "customer_n2+orders_n1"),
      0.6666666666666666, 0.4166666666666667, 0.9333333333333333),
    ("q21_part_leftjoin_partsupp", Seq("partsupp_n2", "part_n1", "part_n2", "partsupp_n1"),
      0.03333333333333333, 0.008333333333333333, 0.7791666666666667),
    ("q24_ps_part_supplier", Seq("partsupp_n2", "supplier_n1+partsupp_e1", "part_n1+partsupp_e1",
      "supplier_n1+partsupp_e2", "part_e2+partsupp_e2", "part_e2+partsupp_e1",
      "customer_n2+partsupp_e2", "customer_n2+partsupp_e1"),
      0.1875, 0.04918032786885246, 0.796875),
    ("q25_cust_nation_region", Seq("customer_n2", "nation_n1+customer_n1", "nation_n1+customer_n2",
      "nation_n2+customer_n2", "nation_n2+customer_n1", "customer_n1"),
      0.0, 0.0, 0.875),
    ("q26_union_of_joins", Seq("orders_n1", "customer_n2+orders_n2", "customer_n1+orders_n1",
      "customer_n2+orders_n1", "customer_n1+orders_n2"),
      1.0, 1.0, 1.0)
  )

  test("Gen-T returns the pinned originating tables and scores") {
    pinnedOutputs.foreach { case (name, originating, recall, precision, eis) =>
      val src = bench.sources.find(_.name == name).get
      val r = GenT.reclaim(bench.repo, bench.index, src, spark)
      assert(r.originating == originating, name)
      val s = Metrics.all(r.reclaimed, src)
      Seq(("recall", s.recall, recall), ("precision", s.precision, precision), ("EIS", s.eis, eis))
        .foreach { case (m, got, want) =>
          assert(math.abs(got - want) <= 1e-12, s"$name $m: $got vs $want")
        }
    }
  }
}
