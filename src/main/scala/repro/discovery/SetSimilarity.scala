package repro.discovery

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import repro.lake.{LakeIndex, SourceTable, TableRepo}

/** Candidate table retrieval by exact set overlap (paper Algorithms 3–4).
  *
  * A source costs a fixed number of Spark jobs, whatever the number of
  * candidates, plus one schema read for each lake table the repo has not
  * opened yet. Against the `(table, column, value)` [[LakeIndex]]:
  *   1. index ⋈ unpivot(S) on value → per (lake column, source column)
  *      overlap counts;
  *   2. restricted index self-join → pairwise overlap counts between the
  *      lake columns mapped to the same source column (used by Diversify);
  *   3. restricted index → the distinct-value sizes of those columns.
  * Then, over the candidate tables themselves: one job per verification
  * round (at most five per batch; one batch unless candidates fail) and
  * one job for every survivor's duplicate signature. The source's column
  * sizes and rows take two more. The orchestration (greedy column
  * mapping, Diversify's ranking, the top-k cut) runs on the driver over
  * those small aggregate results.
  */
object SetSimilarity {

  /** A candidate lake table with its implicit schema matching.
    *
    * @param mapping  lake column → source column (injective both ways)
    * @param score    average diversified overlap score across mapped
    *                 source columns (Algorithm 3, line 9)
    */
  final case class Candidate(table: String, mapping: Map[String, String], score: Double)

  final case class Config(tau: Double = 0.2, topK: Int = 10)

  /** Overlap of every (lake table, lake column, source column) triple:
    * |C ∩ c| and the containment |C ∩ c| / |c|.
    */
  private[discovery] def sourceOverlaps(
      index: DataFrame, source: SourceTable): Seq[(String, String, String, Long)] = {
    val srcIdx = LakeIndex.unpivot(source.df)
      .withColumnRenamed("column", "scol")
    index.join(srcIdx, "value")
      .groupBy("table", "column", "scol")
      .agg(count("*").as("m"))
      .collect().toIndexedSeq
      .map(r => (r.getString(0), r.getString(1), r.getString(2), r.getLong(3)))
  }

  /** The index rows of the given lake columns only: a `left_semi` join
    * against a driver-side list of (table, column) keys.
    */
  private def restrictTo(
      index: DataFrame, cols: Set[(String, String)], spark: SparkSession): DataFrame = {
    import spark.implicits._
    val keyDf = cols.toSeq.toDF("t", "c")
    index.join(keyDf, index("table") === keyDf("t") && index("column") === keyDf("c"), "left_semi")
  }

  /** Pairwise overlap counts between the given lake columns, computed via
    * a restricted index self-join. Returns ((t1,c1),(t2,c2)) → |∩|.
    */
  private[discovery] def pairwiseOverlaps(
      index: DataFrame,
      cols: Set[(String, String)],
      spark: SparkSession): Map[((String, String), (String, String)), Long] = {
    if (cols.isEmpty) return Map.empty
    val restricted = restrictTo(index, cols, spark)
    val a = restricted.select(col("table").as("t1"), col("column").as("c1"), col("value"))
    val b = restricted.select(col("table").as("t2"), col("column").as("c2"), col("value"))
    a.join(b, "value")
      .where(col("t1") =!= col("t2") || col("c1") =!= col("c2"))
      .groupBy("t1", "c1", "t2", "c2").agg(count("*").as("m"))
      .collect().toIndexedSeq
      .map(r => ((r.getString(0), r.getString(1)), (r.getString(2), r.getString(3))) -> r.getLong(4))
      .toMap
  }

  /** Column distinct-value sizes for the given lake columns. */
  private[discovery] def columnSizes(
      index: DataFrame,
      cols: Set[(String, String)],
      spark: SparkSession): Map[(String, String), Long] = {
    if (cols.isEmpty) return Map.empty
    restrictTo(index, cols, spark).groupBy("table", "column").agg(count("*").as("n"))
      .collect().toIndexedSeq
      .map(r => (r.getString(0), r.getString(1)) -> r.getLong(2))
      .toMap
  }

  /** Aligned-tuple verification (Algorithm 3, lines 11–14). Column-level
    * set containment alone admits coincidental mappings between columns
    * of the same value domain (dense integer keys, small categorical
    * ranges). The paper's fix: within the candidate's tuples that align
    * with the source, each mapped column must *still* overlap highly.
    *
    * We anchor alignment on the candidate's strongest mapped column
    * (preferring one mapped to a source key). A tuple is aligned when its
    * anchor value occurs in the source's anchor column; a non-anchor
    * mapped column is verified by the fraction of aligned, non-null cells
    * whose (anchor value, cell value) pair also occurs in the source.
    * Mappings below τ are dropped; a candidate left with nothing but its
    * anchor is discarded.
    */
  private val AnchorSep = ""

  /** Repair rounds per candidate: a failed anchor is banned and the greedy
    * mapping re-run, at most this many times in all.
    */
  private val RepairRounds = 5

  /** The source side of one candidate mapping's verification.
    *
    * The anchor is the set of mapped pairs targeting source *key* columns
    * (a joint, multi-column anchor when the key is composite — aligning
    * on a single weak key column such as a 5-value suppkey would align
    * almost every tuple and falsely fail the other columns); when no key
    * is mapped, the single pair whose source column has the most distinct
    * values (the strongest evidence).
    *
    * @param checkCols  the non-anchor (lakeCol, srcCol) pairs to verify
    * @param anchorVals the source's anchor strings
    * @param pairSets   lakeCol → the source's (anchor, value) pairs of
    *                   the source column it is mapped to
    */
  private final case class Check(
      table: String,
      anchorPairs: Seq[(String, String)],
      checkCols: Seq[(String, String)],
      anchorVals: Set[String],
      pairSets: Map[String, Set[(String, String)]])

  private def check(
      table: String,
      mapping: Map[String, String], // lakeCol -> srcCol
      source: SourceTable,
      srcRows: Seq[Map[String, String]],
      srcDistinct: Map[String, Int]): Check = {
    val keyPairs = mapping.toSeq.filter { case (_, sc) => source.keys.contains(sc) }
      .sortBy(_._2)
    val anchorPairs: Seq[(String, String)] =
      if (keyPairs.nonEmpty) keyPairs
      else Seq(mapping.toSeq.maxBy { case (_, sc) => (srcDistinct.getOrElse(sc, 0), sc) })
    val anchorSrcCols = anchorPairs.map(_._2)
    val anchorLakeCols = anchorPairs.map(_._1)

    def anchorOf(r: Map[String, String]): String = {
      val parts = anchorSrcCols.map(sc => r.getOrElse(sc, null))
      if (parts.contains(null)) null else parts.mkString(AnchorSep)
    }
    val checkCols = mapping.toSeq.filterNot { case (c, _) => anchorLakeCols.contains(c) }
    val pairSets = checkCols.map { case (c, sc) =>
      c -> srcRows.flatMap { r =>
        val a = anchorOf(r); val v = r.getOrElse(sc, null)
        if (a != null && v != null) Some((a, v)) else None
      }.toSet
    }.toMap
    Check(table, anchorPairs, checkCols,
      srcRows.map(anchorOf).filter(_ != null).toSet, pairSets)
  }

  /** The lake side of a round's checks, in one Spark job: per (table,
    * non-anchor lake column), the aligned non-null cells n and those whose
    * (anchor, value) pair occurs in the source m. The input is a tagged
    * union of (table, column, anchor, value) rows over every checked
    * table; a column with no aligned cell is absent.
    */
  private def alignedCounts(
      repo: TableRepo, checks: Seq[Check]): Map[(String, String), (Long, Long)] = {
    if (checks.isEmpty) return Map.empty
    val cells = checks.map { ch =>
      val anchorLakeCols = ch.anchorPairs.map(_._1)
      // Candidate-side anchor string: null when any part is null.
      val anchor = when(anchorLakeCols.map(col(_).isNotNull).reduce(_ && _),
        concat_ws(AnchorSep, anchorLakeCols.map(col): _*))
      val cv = ch.checkCols.map { case (c, _) => struct(lit(c).as("column"), col(c).as("value")) }
      repo.read(ch.table).df
        .select(lit(ch.table).as("table"), anchor.as("anchor"), explode(array(cv: _*)).as("cv"))
        .select(col("table"), col("cv.column").as("column"), col("anchor"),
          col("cv.value").as("value"))
    }
    val anchorVals = checks.map(ch => ch.table -> ch.anchorVals).toMap
    val pairSets = checks.flatMap(ch => ch.pairSets.map { case (c, ps) => (ch.table, c) -> ps })
      .toMap
    val aligned = udf((t: String, a: String) => anchorVals(t).contains(a))
    val agrees = udf((t: String, c: String, a: String, v: String) =>
      pairSets((t, c)).contains((a, v)))
    cells.reduce(_ unionByName _)
      .where(col("anchor").isNotNull && col("value").isNotNull &&
        aligned(col("table"), col("anchor")))
      .groupBy("table", "column")
      .agg(count("*").as("n"),
        sum(agrees(col("table"), col("column"), col("anchor"), col("value")).cast("long")).as("m"))
      .collect().toIndexedSeq
      .map(r => (r.getString(0), r.getString(1)) -> (r.getLong(2), r.getLong(3)))
      .toMap
  }

  /** The mapping that survives a check, or empty when the anchor is
    * unconfirmed. A non-anchor column *passes* at accuracy ≥ τ, but the
    * candidate is only accepted if at least one column's accuracy also
    * beats chance for its cardinality (≥ 2.5/d for d distinct source
    * values): a 2–3 value column (order status…) matches a garbage anchor
    * at chance level ~1/d ≥ τ, so it can ride along but never *confirm*
    * an anchor.
    */
  private def surviving(
      ch: Check,
      counts: Map[(String, String), (Long, Long)],
      srcDistinct: Map[String, Int],
      cfg: Config): Map[String, String] = {
    def acc(c: String): Option[Double] = counts.get((ch.table, c)).collect {
      case (n, m) if n > 0 => m.toDouble / n
    }
    val passing = ch.checkCols.filter { case (c, _) => acc(c).forall(_ >= cfg.tau) }
    val confirmed = ch.checkCols.exists { case (c, sc) =>
      val d = math.max(1, srcDistinct.getOrElse(sc, 1))
      acc(c).exists(_ >= math.max(cfg.tau, 2.5 / d))
    }
    if (!confirmed) Map.empty else (passing ++ ch.anchorPairs).toMap
  }

  /** Verify a batch of ranked tables, repairing crossed column assignments,
    * in at most [[RepairRounds]] rounds of one Spark job each. Every round
    * re-runs the greedy mapping of each pending table without its banned
    * pairs and checks all of them together. Anchor confirmed by at least
    * one above-chance column → accept (below-τ columns are simply dropped,
    * as in the paper). Anchor unconfirmed → crossed assignment: ban the
    * anchor pairs and re-map; the other columns may have failed merely
    * because the bogus anchor aligned garbage tuples. A table whose
    * mapping shrinks below two columns is rejected.
    *
    * Returns the surviving mapping of every accepted table.
    */
  private def verifyBatch(
      repo: TableRepo,
      tables: Seq[String],
      tableTriples: Map[String, Seq[(String, String, Double, Long)]],
      source: SourceTable,
      srcRows: Seq[Map[String, String]],
      srcDistinct: Map[String, Int],
      cfg: Config): Map[String, Map[String, String]] = {
    val banned = scala.collection.mutable.Map[String, Set[(String, String)]]()
      .withDefaultValue(Set.empty)
    val accepted = scala.collection.mutable.Map[String, Map[String, String]]()
    var pending = tables
    for (_ <- 0 until RepairRounds if pending.nonEmpty) {
      val checks = pending.flatMap { t =>
        val mapping = greedyMapping(tableTriples(t), banned(t), cfg.tau)
        if (mapping.size < 2) None
        else Some(check(t, mapping.map { case (c, (sc, _)) => c -> sc },
          source, srcRows, srcDistinct))
      }
      val counts = alignedCounts(repo, checks.filter(_.checkCols.nonEmpty))
      checks.foreach { ch =>
        val kept = surviving(ch, counts, srcDistinct, cfg)
        if (kept.size >= 2) accepted(ch.table) = kept
        else banned(ch.table) ++= ch.anchorPairs
      }
      pending = checks.map(_.table).filterNot(accepted.contains)
    }
    accepted.toMap
  }

  /** Greedy injective column assignment: lakeCol→srcCol by descending
    * containment, each side used at most once, skipping `banned` pairs.
    */
  private def greedyMapping(
      triples: Seq[(String, String, Double, Long)],
      banned: Set[(String, String)],
      tau: Double): Map[String, (String, Double)] = {
    val usedLake = scala.collection.mutable.Set[String]()
    val usedSrc = scala.collection.mutable.Set[String]()
    val chosen = scala.collection.mutable.Map[String, (String, Double)]()
    triples.foreach { case (c, sc, ov, _) =>
      if (ov >= tau && !banned.contains((c, sc)) &&
          !usedLake.contains(c) && !usedSrc.contains(sc)) {
        usedLake += c; usedSrc += sc; chosen(c) = (sc, ov)
      }
    }
    chosen.toMap
  }

  /** Content signature of every candidate, in one Spark job: its renamed
    * column set, row count and the sum of its row hashes (order
    * independent). Equal signatures mean row-identical mapped content.
    */
  private def contentSignatures(
      repo: TableRepo, cands: Seq[Candidate]): Map[String, (Set[String], Long, String)] = {
    if (cands.isEmpty) return Map.empty
    val hashes = cands.map { c =>
      val df = renamed(repo, c)
      val cols = df.columns.sorted.toIndexedSeq
      val rowHash = xxhash64(cols.map(cn =>
        concat(lit(cn + "="), coalesce(col(cn), lit("␀")))): _*)
      // Sum as decimal: a long sum of 64-bit hashes overflows under ANSI.
      df.select(lit(c.table).as("table"), rowHash.cast("decimal(38,0)").as("h"))
    }
    val sums = hashes.reduce(_ unionByName _)
      .groupBy("table").agg(count("*").as("n"), sum(col("h")).as("s"))
      .collect()
      .map(r => r.getString(0) -> (r.getLong(1), r.getDecimal(2).toString))
      .toMap
    cands.map { c =>
      val (n, s) = sums.getOrElse(c.table, (0L, "0"))
      c.table -> (c.mapping.values.toSet, n, s)
    }.toMap
  }

  /** Algorithm 3 (with Algorithm 4's diversification): find, rank,
    * diversify, verify, and prune candidate tables.
    */
  def findCandidates(
      repo: TableRepo,
      index: DataFrame,
      source: SourceTable,
      spark: SparkSession,
      cfg: Config = Config()): Seq[Candidate] = {

    val srcSizes = LakeIndex.sourceColumnSizes(source)
    val overlaps = sourceOverlaps(index, source)

    // Per-table (lakeCol, srcCol, containment, |intersection|) triples,
    // ordered by containment, intersection size, then key-preference (the
    // absolute-evidence and key tie-breaks matter when several source
    // columns share a value domain — dense integer keys especially).
    val tableTriples: Map[String, Seq[(String, String, Double, Long)]] =
      overlaps.groupBy(_._1).view.mapValues { ts =>
        ts.map { case (_, c, sc, m) =>
          (c, sc, m.toDouble / math.max(1L, srcSizes.getOrElse(sc, 1L)), m)
        }.sortBy { case (c, sc, ov, m) =>
          (-ov, -m, if (source.keys.contains(sc)) 0 else 1, sc, c)
        }
      }.toMap

    val mappings: Map[String, Map[String, (String, Double)]] = tableTriples
      .map { case (t, ts) => t -> greedyMapping(ts, Set.empty, cfg.tau) }
      .filter(_._2.nonEmpty)

    if (mappings.isEmpty) return Seq.empty

    val mappedCols: Set[(String, String)] =
      mappings.toSeq.flatMap { case (t, m) => m.keys.toSeq.map(t -> _) }.toSet
    val pairOv = pairwiseOverlaps(index, mappedCols, spark)
    val colSz = columnSizes(index, mappedCols, spark)

    // --- Algorithm 4 per source column: rank by overlap, then rescore
    // each candidate against its predecessor's mapped column.
    val perSrcCol: Map[String, Seq[(String, Double)]] = source.df.columns.toIndexedSeq.flatMap { sc =>
      val cands = mappings.toSeq.flatMap { case (t, m) =>
        m.collectFirst { case (c, (`sc`, ov)) => (t, c, ov) }
      }.sortBy(-_._3)
      if (cands.isEmpty) None
      else {
        val diversified = cands.zipWithIndex.map { case ((t, c, ov), i) =>
          if (i == 0) (t, ov)
          else {
            val (pt, pc, _) = cands(i - 1)
            val inter = pairOv.getOrElse(((t, c), (pt, pc)), 0L).toDouble
            val prevColOverlap = inter / math.max(1L, colSz.getOrElse((t, c), 1L))
            (t, ov - prevColOverlap)
          }
        }
        Some(sc -> diversified.sortBy(-_._2))
      }
    }.toMap

    // --- Algorithm 3, line 9: average diversified score per table.
    val tableScores: Map[String, Double] = perSrcCol.values.flatten
      .groupBy(_._1).map { case (t, xs) => t -> xs.map(_._2).sum / xs.size }

    val ranked = tableScores.toSeq.sortBy { case (t, s) => (-s, t) }.map(_._1)

    // --- Aligned-tuple verification (Algorithm 3, lines 11–14): walk the
    // ranked list, verifying (and repairing) each candidate's mapping,
    // until enough candidates survive. Junk candidates whose high set
    // overlap is coincidental die here. A batch is the next
    // `wanted − verified` tables: each adds at most one candidate, so the
    // batches attempt exactly the tables a one-by-one walk would.
    val srcRows: Seq[Map[String, String]] = source.df.collect().toIndexedSeq.map { r =>
      source.df.columns.toIndexedSeq.zipWithIndex.map { case (c, i) =>
        c -> (if (r.isNullAt(i)) null else r.get(i).toString)
      }.toMap
    }
    val srcDistinct: Map[String, Int] = source.df.columns.toIndexedSeq.map { sc =>
      sc -> srcRows.flatMap(_.get(sc)).filter(_ != null).distinct.size
    }.toMap
    val verified = scala.collection.mutable.ArrayBuffer[Candidate]()
    val wanted = cfg.topK + 4 // headroom for the duplicate removal below
    var toAttempt = ranked.take(cfg.topK * 8)
    while (toAttempt.nonEmpty && verified.size < wanted) {
      val (batch, rest) = toAttempt.splitAt(wanted - verified.size)
      val accepted = verifyBatch(repo, batch, tableTriples, source, srcRows, srcDistinct, cfg)
      batch.foreach(t => accepted.get(t).foreach(m => verified += Candidate(t, m, tableScores(t))))
      toAttempt = rest
    }

    // --- Duplicate-candidate removal (Algorithm 3, line 15). Data lakes
    // hold many copies of the same table; we drop candidates whose
    // renamed, mapped content is row-identical to a better-ranked one
    // (order-independent row-hash signature, one Spark job for all).
    // Value-set containment — the paper's phrasing — cannot distinguish
    // complementary nullified versions from duplicates, so we compare
    // row-level content instead (see DESIGN.md).
    val signatures = contentSignatures(repo, verified.toSeq)
    val seen = scala.collection.mutable.Set[(Set[String], Long, String)]()
    val deduped = verified.filter(c => seen.add(signatures(c.table)))
    deduped.take(cfg.topK).toSeq
  }

  /** Project a candidate onto its mapped columns, renamed to the source's
    * column names (the paper's implicit schema matching).
    */
  def renamed(repo: TableRepo, cand: Candidate): DataFrame = {
    val df = repo.read(cand.table).df
    df.select(cand.mapping.toSeq.sortBy(_._2).map { case (c, sc) => col(c).as(sc) }: _*)
  }
}
