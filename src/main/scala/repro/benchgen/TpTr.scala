package repro.benchgen

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import repro.SynthData
import repro.lake.{Lake, LakeIndex, SourceTable, TableRepo}

/** The TP-TR benchmark suite (paper §VI-A).
  *
  * Eight TPC-H-lite base tables; each contributes four lake versions
  * (2 nullified + 2 erroneous, see [[Variants]]) → 32 lake tables.
  * 26 deterministic queries over the *original* tables (π, σ, ⋈, ⟕, ⟗, ∪
  * with up to 3-way joins and 4-way unions) produce the Source Tables,
  * each with a known key. Scales: Small / Med / Large differ by scale
  * factor; sizes are container-scaled versions of the paper's (DESIGN.md
  * §5). The "integrating set" of a source is the four versions of each
  * base table its query touched.
  */
object TpTr {

  /** Benchmark scale: SynthData scale factor + per-query selection caps. */
  final case class Scale(name: String, sf: Double, smallCaps: Boolean)
  val Small = Scale("tptr_small", 0.0005, smallCaps = true)
  val Med = Scale("tptr_med", 0.005, smallCaps = false)
  val Large = Scale("tptr_large", 0.05, smallCaps = false)
  /** Large at jobs scale (closer to the paper's 1M-row average). */
  val LargeFull = Scale("tptr_large_full", 0.2, smallCaps = false)

  /** Primary keys of the base tables — protected from noise injection
    * (see [[Variants]] for why).
    */
  val baseKeys: Map[String, Seq[String]] = Map(
    "lineitem" -> Seq("l_orderkey", "l_linenumber"),
    "orders" -> Seq("o_orderkey"),
    "customer" -> Seq("c_custkey"),
    "part" -> Seq("p_partkey"),
    "supplier" -> Seq("s_suppkey"),
    "partsupp" -> Seq("ps_partkey", "ps_suppkey"),
    "nation" -> Seq("n_nationkey"),
    "region" -> Seq("r_regionkey"),
  )

  final case class QuerySpec(
      name: String,
      baseTables: Set[String],
      keys: Seq[String],
      numOps: Int,
      build: Map[String, DataFrame] => DataFrame)

  final case class Benchmark(
      repo: TableRepo,
      index: DataFrame,
      sources: Seq[SourceTable],
      intSets: Map[String, Seq[String]],
      scale: Scale)

  /** Equi-join that keeps exactly one copy of the join column (the left
    * name; coalesced for full outer so it stays non-null when either side
    * matched).
    */
  private def joinOn(l: DataFrame, r: DataFrame, lc: String, rc: String,
                     how: String): DataFrame = {
    val joined = l.join(r, l(lc) === r(rc), how)
    val keyCol =
      if (how == "full") coalesce(l(lc), r(rc)).as(lc) else l(lc).as(lc)
    val others = l.columns.toIndexedSeq.filterNot(_ == lc).map(c => l(c).as(c)) ++
      r.columns.toIndexedSeq.filterNot(_ == rc).map(c => r(c).as(c))
    joined.select(keyCol +: others: _*)
  }

  /** The 26 query specs. Selection caps give Small sources ~20–40 rows and
    * Med/Large sources ~1K rows (keys are dense, so absolute key ranges
    * are scale-stable once the table is large enough — same trick as the
    * paper's identical queries across TP-TR scales).
    */
  def queries(scale: Scale): Seq[QuerySpec] = {
    def cap(small: Int, large: Int): Int = if (scale.smallCaps) small else large
    val cCap = cap(40, 1000)
    val oCap = cap(30, 1000)
    val lCap = cap(8, 250)
    val pCap = cap(30, 1000)
    val psCap = cap(8, 250)

    def c(t: Map[String, DataFrame]) = t("customer")
    def o(t: Map[String, DataFrame]) = t("orders")
    def l(t: Map[String, DataFrame]) = t("lineitem")
    def p(t: Map[String, DataFrame]) = t("part")
    def s(t: Map[String, DataFrame]) = t("supplier")
    def ps(t: Map[String, DataFrame]) = t("partsupp")
    def n(t: Map[String, DataFrame]) = t("nation")
    def r(t: Map[String, DataFrame]) = t("region")

    Seq(
      QuerySpec("q01_customer", Set("customer"), Seq("c_custkey"), 2,
        t => c(t).where(col("c_custkey") <= cCap)),
      QuerySpec("q02_orders", Set("orders"), Seq("o_orderkey"), 2,
        t => o(t).where(col("o_orderkey") <= oCap)),
      QuerySpec("q03_part", Set("part"), Seq("p_partkey"), 2,
        t => p(t).where(col("p_partkey") <= pCap)),
      QuerySpec("q04_supplier", Set("supplier"), Seq("s_suppkey"), 2,
        t => s(t).where(col("s_suppkey") <= cap(10, 500))),
      QuerySpec("q05_partsupp", Set("partsupp"), Seq("ps_partkey", "ps_suppkey"), 2,
        t => ps(t).where(col("ps_partkey") <= psCap)),
      QuerySpec("q06_lineitem", Set("lineitem"), Seq("l_orderkey", "l_linenumber"), 2,
        t => l(t).where(col("l_orderkey") <= lCap)
          .dropDuplicates("l_orderkey", "l_linenumber")),
      QuerySpec("q07_nation", Set("nation"), Seq("n_nationkey"), 2,
        t => n(t).select("n_nationkey", "n_name", "n_regionkey")),
      QuerySpec("q08_cust_union2", Set("customer"), Seq("c_custkey"), 4,
        t => c(t).where(col("c_custkey") <= cCap && col("c_mktsegment") === "BUILDING")
          .unionByName(c(t).where(col("c_custkey") <= cCap && col("c_mktsegment") === "MACHINERY"))),
      QuerySpec("q09_orders_union2", Set("orders"), Seq("o_orderkey"), 4,
        t => o(t).where(col("o_orderkey") <= oCap && col("o_orderstatus") === "O")
          .unionByName(o(t).where(col("o_orderkey") <= oCap && col("o_orderstatus") === "F"))),
      QuerySpec("q10_part_union3", Set("part"), Seq("p_partkey"), 6,
        t => Seq("STANDARD", "SMALL", "MEDIUM")
          .map(ty => p(t).where(col("p_partkey") <= pCap && col("p_type") === ty))
          .reduce(_ unionByName _)),
      QuerySpec("q11_cust_union4", Set("customer"), Seq("c_custkey"), 8,
        t => Seq("BUILDING", "AUTOMOBILE", "MACHINERY", "HOUSEHOLD")
          .map(seg => c(t).where(col("c_custkey") <= cCap && col("c_mktsegment") === seg))
          .reduce(_ unionByName _)),
      QuerySpec("q12_orders_customer", Set("orders", "customer"), Seq("o_orderkey"), 4,
        t => joinOn(o(t).where(col("o_orderkey") <= oCap), c(t),
          "o_custkey", "c_custkey", "inner")
          .select("o_orderkey", "o_custkey", "o_totalprice", "c_nationkey", "c_mktsegment")),
      QuerySpec("q13_lineitem_orders", Set("lineitem", "orders"),
        Seq("l_orderkey", "l_linenumber"), 4,
        t => joinOn(l(t).where(col("l_orderkey") <= lCap)
          .dropDuplicates("l_orderkey", "l_linenumber"), o(t),
          "l_orderkey", "o_orderkey", "inner")
          .select("l_orderkey", "l_linenumber", "l_quantity", "l_extendedprice",
            "o_orderstatus", "o_totalprice")),
      QuerySpec("q14_lineitem_part", Set("lineitem", "part"),
        Seq("l_orderkey", "l_linenumber"), 4,
        t => joinOn(l(t).where(col("l_orderkey") <= lCap)
          .dropDuplicates("l_orderkey", "l_linenumber"), p(t),
          "l_partkey", "p_partkey", "inner")
          .select("l_orderkey", "l_linenumber", "l_partkey", "l_quantity", "p_type", "p_size")),
      QuerySpec("q15_partsupp_supplier", Set("partsupp", "supplier"),
        Seq("ps_partkey", "ps_suppkey"), 4,
        t => joinOn(ps(t).where(col("ps_partkey") <= psCap), s(t),
          "ps_suppkey", "s_suppkey", "inner")
          .select("ps_partkey", "ps_suppkey", "ps_availqty", "s_nationkey", "s_acctbal")),
      QuerySpec("q16_partsupp_part", Set("partsupp", "part"),
        Seq("ps_partkey", "ps_suppkey"), 4,
        t => joinOn(ps(t).where(col("ps_partkey") <= psCap), p(t),
          "ps_partkey", "p_partkey", "inner")
          .select("ps_partkey", "ps_suppkey", "ps_supplycost", "p_type", "p_retailprice")),
      QuerySpec("q17_customer_nation", Set("customer", "nation"), Seq("c_custkey"), 4,
        t => joinOn(c(t).where(col("c_custkey") <= cCap), n(t),
          "c_nationkey", "n_nationkey", "inner")
          .select("c_custkey", "c_nationkey", "c_acctbal", "c_mktsegment", "n_name")),
      QuerySpec("q18_supplier_nation", Set("supplier", "nation"), Seq("s_suppkey"), 4,
        t => joinOn(s(t).where(col("s_suppkey") <= cap(10, 500)), n(t),
          "s_nationkey", "n_nationkey", "inner")
          .select("s_suppkey", "s_nationkey", "s_name", "s_acctbal", "n_name", "n_regionkey")),
      QuerySpec("q19_nation_region", Set("nation", "region"), Seq("n_nationkey"), 3,
        t => joinOn(n(t), r(t), "n_regionkey", "r_regionkey", "inner")
          .select("n_nationkey", "n_name", "n_regionkey", "r_name")),
      QuerySpec("q20_orders_leftjoin_customer", Set("orders", "customer"),
        Seq("o_orderkey"), 5,
        t => joinOn(o(t).where(col("o_orderkey") <= oCap),
          c(t).where(col("c_custkey") <= cCap / 2),
          "o_custkey", "c_custkey", "left")
          .select("o_orderkey", "o_custkey", "o_orderstatus", "c_nationkey", "c_mktsegment")),
      QuerySpec("q21_part_leftjoin_partsupp", Set("part", "partsupp"),
        Seq("p_partkey"), 5,
        t => joinOn(p(t).where(col("p_partkey") <= pCap),
          ps(t).dropDuplicates("ps_partkey"),
          "p_partkey", "ps_partkey", "left")
          .select("p_partkey", "p_type", "p_size", "ps_suppkey", "ps_availqty")),
      QuerySpec("q22_orders_fullouter_customer", Set("orders", "customer"),
        Seq("o_custkey"), 6,
        t => joinOn(
          o(t).where(col("o_orderkey") <= oCap).dropDuplicates("o_custkey"),
          c(t).where(col("c_custkey") <= cCap),
          "o_custkey", "c_custkey", "full")
          .select("o_custkey", "o_orderkey", "o_totalprice", "c_acctbal", "c_mktsegment")),
      QuerySpec("q23_li_orders_customer", Set("lineitem", "orders", "customer"),
        Seq("l_orderkey", "l_linenumber"), 6,
        t => {
          val lo = joinOn(l(t).where(col("l_orderkey") <= lCap)
            .dropDuplicates("l_orderkey", "l_linenumber"), o(t),
            "l_orderkey", "o_orderkey", "inner")
          joinOn(lo, c(t), "o_custkey", "c_custkey", "inner")
            .select("l_orderkey", "l_linenumber", "l_quantity", "o_custkey",
              "o_totalprice", "c_mktsegment")
        }),
      QuerySpec("q24_ps_part_supplier", Set("partsupp", "part", "supplier"),
        Seq("ps_partkey", "ps_suppkey"), 6,
        t => {
          val pp = joinOn(ps(t).where(col("ps_partkey") <= psCap), p(t),
            "ps_partkey", "p_partkey", "inner")
          joinOn(pp, s(t), "ps_suppkey", "s_suppkey", "inner")
            .select("ps_partkey", "ps_suppkey", "ps_availqty", "ps_supplycost",
              "p_size", "s_nationkey")
        }),
      QuerySpec("q25_cust_nation_region", Set("customer", "nation", "region"),
        Seq("c_custkey"), 6,
        t => {
          val cn = joinOn(c(t).where(col("c_custkey") <= cCap), n(t),
            "c_nationkey", "n_nationkey", "inner")
          joinOn(cn, r(t), "n_regionkey", "r_regionkey", "inner")
            .select("c_custkey", "c_nationkey", "c_mktsegment", "n_name", "r_name")
        }),
      QuerySpec("q26_union_of_joins", Set("orders", "customer"), Seq("o_orderkey"), 7,
        t => {
          def branch(status: String) = joinOn(
            o(t).where(col("o_orderkey") <= oCap && col("o_orderstatus") === status),
            c(t), "o_custkey", "c_custkey", "inner")
            .select("o_orderkey", "o_custkey", "o_orderstatus", "c_nationkey", "c_acctbal")
          branch("O").unionByName(branch("F"))
        }),
    )
  }

  /** Build (or load, if already on disk) the benchmark at `root`.
    *
    * Both the 32-table lake AND the 26 source tables are materialized to
    * Parquet on first build and read back afterwards: sources and lake
    * versions must come from the *same* generator evaluation (Spark's
    * `rand(seed)` output is only stable within one materialization), so a
    * benchmark is a persisted artifact, never regenerated piecemeal.
    */
  def build(spark: SparkSession, root: String, scale: Scale,
            nullP: Double = 0.5, errP: Double = 0.5,
            distractors: Int = 0): Benchmark = {
    val repo = new TableRepo(root, spark)
    val srcDir = new java.io.File(root, "sources")
    val needBuild = repo.tableNames.isEmpty || !srcDir.isDirectory

    val qs = queries(scale)
    if (needBuild) {
      val originals = SynthData.allTables(spark, scale.sf)
        .map { case (k, v) => k -> Lake.stringify(v).cache() }
      // Materialize originals first so every downstream table (variants
      // and sources) reads the exact same generated values.
      originals.values.foreach(_.count())
      val lakeTables: Map[String, DataFrame] =
        originals.flatMap { case (nm, df) =>
          Variants.fourVersions(nm, df, baseKeys(nm), nullP, errP)
        } ++
          (if (distractors > 0) Distractors.tables(spark, distractors, seed = 7)
           else Map.empty)
      lakeTables.foreach { case (nm, df) => repo.write(nm, df) }
      qs.foreach { q =>
        Lake.stringify(q.build(originals)).write.mode("overwrite")
          .parquet(new java.io.File(srcDir, q.name).toString)
      }
      originals.values.foreach(_.unpersist())
    }

    // Every source's discovery probes the index twice — cache it.
    val index = LakeIndex.buildOrLoad(repo, spark).cache()
    val sources = qs.map { q =>
      SourceTable(q.name,
        spark.read.parquet(new java.io.File(srcDir, q.name).toString).cache(), q.keys)
    }
    val intSets = qs.map { q =>
      q.name -> q.baseTables.toSeq.sorted.flatMap(b =>
        Seq(s"${b}_n1", s"${b}_n2", s"${b}_e1", s"${b}_e2"))
    }.toMap
    Benchmark(repo, index, sources, intSets, scale)
  }
}
