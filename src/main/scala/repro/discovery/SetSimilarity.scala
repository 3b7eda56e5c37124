package repro.discovery

import org.apache.spark.SparkContext
import org.apache.spark.sql.{Column, DataFrame, Encoders, SparkSession}
import org.apache.spark.sql.functions._
import repro.core.KeyedRows
import repro.lake.{SourceTable, TableRepo}

/** Candidate table retrieval by exact set overlap (paper Algorithms 3–4).
  *
  * Only the lake-scale overlap search runs in Spark; everything about a
  * single candidate runs on the driver. A source costs four Spark jobs
  * when the walk below verifies no table beyond the `topK * 8` best by
  * undiversified score, plus one schema read for each lake table the
  * repo has not opened yet:
  *   1. the source's rows, collected once ([[KeyedRows.collect]]); its
  *      column sizes come from them;
  *   2. the index probed with S's distinct values → per (lake column,
  *      source column) overlap counts;
  *   3. the index rows of the mapped lake columns grouped by value →
  *      pairwise overlap counts by co-occurrence (used by Diversify); the
  *      diagonal is each column's distinct-value size;
  *   4. at the same time, on a second driver thread, one collect of the
  *      rows of those `topK * 8` tables that align with S under any
  *      mapping their repair rounds can try, all tables in one scan of the
  *      lake ([[TableRepo.scan]]): the rounds depend on the overlaps
  *      alone. A batch of the walk that reaches a table outside them reads
  *      it in one more such collect.
  * Verification, its repair rounds and the duplicate check then run on the
  * driver over those rows. Each candidate keeps the rows its mapping
  * aligns (`Candidate.aligned`): for one that maps every key column, the
  * rows with one of S's keys that Gen-T reclaims from without reading the
  * table again. Only candidates whose aligned rows tie with
  * another's need a content signature, one more job for all of them. The
  * orchestration (greedy column mapping, Diversify's ranking, the top-k
  * cut) runs on the driver over the small aggregate results.
  */
object SetSimilarity {

  /** A candidate lake table with its implicit schema matching.
    *
    * @param mapping  lake column → source column (injective both ways)
    * @param score    average diversified overlap score across mapped
    *                 source columns (Algorithm 3, line 9)
    * @param aligned  the candidate's renamed rows that verification aligned
    *                 with S, on its source columns in name order. When the
    *                 mapping covers every key column the anchor is S's key,
    *                 so these are exactly the rows carrying one of S's keys
    *                 (the semi-join [[repro.core.Operators.selectSourceKeys]]
    *                 of [[renamed]]), which Gen-T reclaims from
    */
  final case class Candidate(
      table: String, mapping: Map[String, String], score: Double, aligned: KeyedRows.Table)

  final case class Config(tau: Double = 0.2, topK: Int = 10)

  /** Distinct non-null values per source column: the denominators of all
    * containment scores. An all-null column counts 0.
    */
  private[repro] def sourceColumnSizes(src: KeyedRows.Table): Map[String, Int] =
    columnValues(src).map { case (c, vs) => c -> vs.size }.toMap

  /** Each source column with its set of distinct non-null values. */
  private def columnValues(src: KeyedRows.Table): IndexedSeq[(String, Set[String])] =
    src.columns.zipWithIndex.map { case (c, i) =>
      c -> src.rows.iterator.map(_(i)).filter(_ != null).toSet
    }

  /** |C ∩ c| for every (lake table, lake column C, source column c) triple
    * that shares a value, from S's rows on the driver. As JOSIE probes
    * posting lists with a query's values, one Spark job keeps the index
    * rows holding one of S's distinct values (one `isin`) and counts them
    * per lake column, once for each source column whose value set holds
    * the value (one conditional count per source column). No job when S
    * has no non-null value.
    */
  private[discovery] def sourceOverlaps(
      index: DataFrame, src: KeyedRows.Table): Seq[(String, String, String, Long)] = {
    val valued = columnValues(src).filter(_._2.nonEmpty)
    if (valued.isEmpty) return Seq.empty
    val counts = valued.map { case (_, vs) => count(when(col("value").isin(vs.toSeq.sorted: _*), true)) }
    index.where(col("value").isin(valued.flatMap(_._2).distinct.sorted: _*))
      .groupBy("table", "column").agg(counts.head, counts.tail: _*)
      .collect().toIndexedSeq
      .flatMap { r =>
        valued.indices.collect { case i if r.getLong(i + 2) > 0 =>
          (r.getString(0), r.getString(1), valued(i)._1, r.getLong(i + 2))
        }
      }
  }

  /** Pairwise overlap counts between the given lake columns, from the index
    * alone: their index rows (one `isin` on "table/column", unambiguous
    * since table names hold no '/'), grouped by value into the columns
    * that hold it, each group's ordered pairs counted. A partition counts
    * its groups' pairs itself, so a query returns at most |cols|² rows per
    * partition, summed here, and shuffles once. Returns
    * ((t1,c1),(t2,c2)) → |∩|. Index rows are distinct, so the diagonal
    * ((t,c),(t,c)) is the number of distinct values of c.
    */
  private[discovery] def pairwiseOverlaps(
      index: DataFrame,
      cols: Set[(String, String)]): Map[((String, String), (String, String)), Long] = {
    if (cols.isEmpty) return Map.empty
    val byKey = cols.iterator.map { case (t, c) => s"$t/$c" -> (t, c) }.toMap
    index.select(concat(col("table"), lit("/"), col("column")).as("k"), col("value"))
      .where(col("k").isin(byKey.keys.toSeq.sorted: _*))
      .groupBy("value").agg(collect_list("k"))
      .mapPartitions { groups =>
        val pairs = scala.collection.mutable.HashMap[(String, String), Long]()
        groups.foreach { g =>
          val ks = g.getSeq[String](1)
          for (a <- ks; b <- ks) pairs((a, b)) = pairs.getOrElse((a, b), 0L) + 1
        }
        pairs.iterator.map { case ((a, b), m) => (a, b, m) }
      }(Encoders.tuple(Encoders.STRING, Encoders.STRING, Encoders.scalaLong))
      .collect().toSeq
      .groupMapReduce { case (a, b, _) => (byKey(a), byKey(b)) }(_._3)(_ + _)
  }

  // Aligned-tuple verification (Algorithm 3, lines 11–14). Column-level
  // set containment alone admits coincidental mappings between columns
  // of the same value domain (dense integer keys, small categorical
  // ranges). The paper's fix: within the candidate's tuples that align
  // with the source, each mapped column must *still* overlap highly.
  //
  // We anchor alignment on the candidate's strongest mapped column
  // (preferring one mapped to a source key). A tuple is aligned when its
  // anchor tuple occurs among the source's anchor tuples; a non-anchor
  // mapped column is verified by the fraction of aligned, non-null cells
  // whose (anchor tuple, cell value) pair also occurs in the source.
  // Mappings below τ are dropped; a candidate left with nothing but its
  // anchor is discarded.

  /** Repair rounds per candidate: a failed anchor is banned and the greedy
    * mapping re-run, at most this many times in all.
    */
  private val RepairRounds = 5

  /** One candidate mapping of a table and the source side of its check.
    *
    * The anchor is the set of mapped pairs targeting source *key* columns
    * (a joint, multi-column anchor when the key is composite — aligning
    * on a single weak key column such as a 5-value suppkey would align
    * almost every tuple and falsely fail the other columns); when no key
    * is mapped, the single pair whose source column has the most distinct
    * values (the strongest evidence). The anchor depends only on the
    * mapped source columns, so does the set of S's anchor tuples.
    *
    * @param mapping    lake column → source column
    * @param checkCols  the non-anchor (lakeCol, srcCol) pairs to verify
    * @param anchorVals the source's anchor tuples (no null part)
    * @param pairSets   lakeCol → the source's (anchor tuple, value) pairs
    *                   of the source column it is mapped to
    */
  private final case class Check(
      mapping: Map[String, String],
      anchorPairs: Seq[(String, String)],
      checkCols: Seq[(String, String)],
      anchorVals: Set[Seq[String]],
      pairSets: Map[String, Set[(Seq[String], String)]])

  /** The cells of `r` at `idx`, or None when one is null: a tuple with a
    * null part aligns with nothing.
    */
  private def tupleAt(r: Seq[String], idx: Seq[Int]): Option[Seq[String]] = {
    val t = idx.map(r)
    if (t.contains(null)) None else Some(t)
  }

  private def check(
      mapping: Map[String, String],
      src: KeyedRows.Source,
      sizes: Map[String, Int]): Check = {
    val keyPairs = mapping.toSeq.filter { case (_, sc) => src.keys.contains(sc) }
      .sortBy(_._2)
    val anchorPairs: Seq[(String, String)] =
      if (keyPairs.nonEmpty) keyPairs
      else Seq(mapping.toSeq.maxBy { case (_, sc) => (sizes.getOrElse(sc, 0), sc) })
    val cols = src.table.columns
    val anchorIdx = anchorPairs.map { case (_, sc) => cols.indexOf(sc) }
    val aligned = src.table.rows.flatMap(r => tupleAt(r, anchorIdx).map(_ -> r))
    val checkCols = mapping.toSeq.filterNot(anchorPairs.contains)
    val pairSets = checkCols.map { case (c, sc) =>
      val i = cols.indexOf(sc)
      c -> aligned.collect { case (a, r) if r(i) != null => (a, r(i)) }.toSet
    }.toMap
    Check(mapping, anchorPairs, checkCols, aligned.map(_._1).toSet, pairSets)
  }

  /** The repair rounds a table can go through, decided before any lake row
    * is read: a round changes nothing but the banned pairs, and a table
    * that fails a round has its anchor pairs banned. So round k checks
    * M_k, where M_1 = greedy(∅) and M_k+1 = greedy(banned ∪ anchors(M_k)),
    * for at most [[RepairRounds]] rounds and while M_k maps two columns.
    */
  private def repairChain(
      triples: Seq[(String, String, Double, Long)],
      src: KeyedRows.Source,
      sizes: Map[String, Int],
      cfg: Config): Seq[Check] = {
    val chain = scala.collection.mutable.ArrayBuffer[Check]()
    var banned = Set.empty[(String, String)]
    var mapping = greedyMapping(triples, banned, cfg.tau)
    while (chain.size < RepairRounds && mapping.size >= 2) {
      val ch = check(mapping.map { case (c, (sc, _)) => c -> sc }, src, sizes)
      chain += ch
      banned ++= ch.anchorPairs
      mapping = greedyMapping(triples, banned, cfg.tau)
    }
    chain.toSeq
  }

  /** A Spark-side filter that keeps every row of a table aligned under
    * `ch` (a superset: each anchor column's value is one of the source's
    * values for that anchor part).
    */
  private def alignedFilter(ch: Check): Column =
    ch.anchorPairs.indices.map { i =>
      col(ch.anchorPairs(i)._1).isin(ch.anchorVals.iterator.map(_(i)).toSeq.distinct: _*)
    }.reduce(_ && _)

  /** (anchor tuple, row) for each row of `lake` aligned under `ch`. */
  private def aligned(ch: Check, lake: KeyedRows.Table): Seq[(Seq[String], Seq[String])] = {
    val anchorIdx = ch.anchorPairs.map { case (c, _) => lake.columns.indexOf(c) }
    lake.rows.flatMap(r => tupleAt(r, anchorIdx).filter(ch.anchorVals).map(_ -> r))
  }

  /** The mapping that survives a check on the table's rows `lake`, or
    * empty when the anchor is unconfirmed. A non-anchor column *passes* at
    * accuracy ≥ τ, but the candidate is only accepted if at least one
    * column's accuracy also beats chance for its cardinality (≥ 2.5/d for
    * d distinct source values): a 2–3 value column (order status…)
    * matches a garbage anchor at chance level ~1/d ≥ τ, so it can ride
    * along but never *confirm* an anchor. A column with no aligned
    * non-null cell has no accuracy: it passes and confirms nothing.
    */
  private def surviving(
      ch: Check,
      lake: KeyedRows.Table,
      sizes: Map[String, Int],
      cfg: Config): Map[String, String] = {
    val rows = aligned(ch, lake)
    val acc: Map[String, Option[Double]] = ch.checkCols.map { case (c, _) =>
      val i = lake.columns.indexOf(c)
      val cells = rows.collect { case (a, r) if r(i) != null => (a, r(i)) }
      c -> (if (cells.isEmpty) None else Some(cells.count(ch.pairSets(c)).toDouble / cells.size))
    }.toMap
    val passing = ch.checkCols.filter { case (c, _) => acc(c).forall(_ >= cfg.tau) }
    val confirmed = ch.checkCols.exists { case (c, sc) =>
      val d = math.max(1, sizes.getOrElse(sc, 1))
      acc(c).exists(_ >= math.max(cfg.tau, 2.5 / d))
    }
    if (!confirmed) Map.empty else (passing ++ ch.anchorPairs).toMap
  }

  /** A key that every duplicate of `c` shares: its source columns and the
    * multiset of its aligned rows. Tables with equal renamed content have
    * equal keys, since the anchor depends only on the mapped source columns.
    */
  private def dedupKey(c: Candidate): (Set[String], Map[Seq[String], Int]) =
    (c.aligned.columns.toSet, c.aligned.rows.groupMapReduce(identity)(_ => 1)(_ + _))

  /** The repair chain of each of `tables` that has a check to run, in
    * order: a check with no column to verify confirms nothing.
    */
  private def chains(
      tables: Seq[String],
      tableTriples: Map[String, Seq[(String, String, Double, Long)]],
      src: KeyedRows.Source,
      sizes: Map[String, Int],
      cfg: Config): Seq[(String, Seq[Check])] =
    tables.map(t => t -> repairChain(tableTriples(t), src, sizes, cfg).filter(_.checkCols.nonEmpty))
      .filter(_._2.nonEmpty)

  /** One Spark job, none for no table: each table's chain with the rows
    * the table aligns under any of its rounds, on the lake columns any
    * round maps, read in one scan of the lake ([[TableRepo.scan]]).
    */
  private def alignedRows(
      repo: TableRepo,
      chains: Seq[(String, Seq[Check])]): Map[String, (Seq[Check], KeyedRows.Table)] = {
    val reads = chains.map { case (t, chain) =>
      TableRepo.Read(t, chain.map(alignedFilter).reduce(_ || _), chain.flatMap(_.mapping.keys).distinct.sorted)
    }
    chains.zip(KeyedRows.collectTagged(repo.scan(reads), "verification"))
      .map { case ((t, chain), lake) => t -> (chain, lake) }.toMap
  }

  /** Verify a ranked table, repairing crossed column assignments, on the
    * rows `lake` its chain aligns ([[alignedRows]]). Anchor confirmed by at
    * least one above-chance column → accept (below-τ columns are simply
    * dropped, as in the paper). Anchor unconfirmed → crossed assignment:
    * the next round bans the anchor pairs and re-maps; the other columns
    * may have failed merely because the bogus anchor aligned garbage
    * tuples. A table whose mapping shrinks below two columns is rejected.
    * An accepted table's candidate carries its rows aligned under the
    * accepting round, on the surviving mapping.
    */
  private def verify(
      t: String,
      chain: Seq[Check],
      lake: KeyedRows.Table,
      score: Double,
      sizes: Map[String, Int],
      cfg: Config): Option[Candidate] =
    chain.iterator.map(ch => (ch, surviving(ch, lake, sizes, cfg)))
      .collectFirst { case (ch, kept) if kept.size >= 2 =>
        val cols = kept.toSeq.sortBy(_._2)
        val pos = cols.map { case (c, _) => lake.columns.indexOf(c) }
        Candidate(t, kept, score, KeyedRows.Table(cols.map(_._2).toIndexedSeq,
          aligned(ch, lake).map { case (_, r) => pos.map(r) }))
      }

  /** `side` on a second driver thread, created here, while `main` runs on
    * this one. The thread inherits this one's Spark local properties (they
    * are inheritable), so a job it submits is attributed as this thread's
    * would be. A failure on either side is rethrown; when `main` fails,
    * `side`'s jobs are cancelled. The thread has ended on return.
    */
  private def alongside[A, B](sc: SparkContext)(side: => B)(main: => A): (A, B) = {
    val tag = s"set-similarity-${java.util.UUID.randomUUID()}"
    @volatile var sideResult: Either[Throwable, B] = Left(new IllegalStateException("no result"))
    val thread = new Thread(() => {
      sc.addJobTag(tag)
      sideResult = try Right(side) catch { case e: Throwable => Left(e) }
    }, "set-similarity-verification")
    thread.setDaemon(true)
    thread.start()
    val mainResult = try main catch {
      case e: Throwable =>
        sc.cancelJobsWithTag(tag)
        thread.join()
        throw e
    }
    thread.join()
    sideResult.fold(e => throw e, b => (mainResult, b))
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

  /** Content signature of each of `cands`, in one Spark job: its renamed
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
    * diversify, verify, and prune candidate tables. `spark` is unused: the
    * queries run on `index`'s and `repo`'s session.
    */
  def findCandidates(
      repo: TableRepo,
      index: DataFrame,
      source: SourceTable,
      spark: SparkSession,
      cfg: Config = Config()): Seq[Candidate] = {

    val (src, _) = KeyedRows.collect(source, Seq.empty)
    val sizes = sourceColumnSizes(src.table)
    val overlaps = sourceOverlaps(index, src.table)

    // Per-table (lakeCol, srcCol, containment, |intersection|) triples,
    // ordered by containment, intersection size, then key-preference (the
    // absolute-evidence and key tie-breaks matter when several source
    // columns share a value domain — dense integer keys especially).
    val tableTriples: Map[String, Seq[(String, String, Double, Long)]] =
      overlaps.groupBy(_._1).view.mapValues { ts =>
        ts.map { case (_, c, sc, m) =>
          (c, sc, m.toDouble / math.max(1, sizes.getOrElse(sc, 1)), m)
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

    // The walk below attempts at most `topK * 8` tables. Their repair chains
    // need only the overlaps, so the rows of the `topK * 8` best by
    // undiversified score are read while the pairwise overlaps are counted.
    val likely = mappings.toSeq.map { case (t, m) => t -> m.values.map(_._2).sum / m.size }
      .sortBy { case (t, s) => (-s, t) }.take(cfg.topK * 8).map(_._1)
    def verificationRows(tables: Seq[String]) = alignedRows(repo, chains(tables, tableTriples, src, sizes, cfg))
    val (pairOv, prefetched) =
      alongside(index.sparkSession.sparkContext)(verificationRows(likely))(pairwiseOverlaps(index, mappedCols))

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
            val prevColOverlap = inter / math.max(1L, pairOv.getOrElse(((t, c), (t, c)), 1L))
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
    // batches attempt exactly the tables a one-by-one walk would. A table
    // of a batch that the prefetch did not read is read in a follow-up
    // job for the batch.
    val verified = scala.collection.mutable.ArrayBuffer[Candidate]()
    var read = prefetched
    val wanted = cfg.topK + 4 // headroom for the duplicate removal below
    var toAttempt = ranked.take(cfg.topK * 8)
    while (toAttempt.nonEmpty && verified.size < wanted) {
      val (batch, rest) = toAttempt.splitAt(wanted - verified.size)
      read ++= verificationRows(batch.filterNot(likely.toSet))
      verified ++= batch.flatMap(t => read.get(t).flatMap { case (chain, lake) =>
        verify(t, chain, lake, tableScores(t), sizes, cfg)
      })
      toAttempt = rest
    }

    // --- Duplicate-candidate removal (Algorithm 3, line 15). Data lakes
    // hold many copies of the same table; we drop candidates whose
    // renamed, mapped content is row-identical to a better-ranked one.
    // Value-set containment — the paper's phrasing — cannot distinguish
    // complementary nullified versions from duplicates, so we compare
    // row-level content instead (see DESIGN.md). Duplicates share a dedup
    // key, so only candidates whose key ties with another's need the
    // content signature (one Spark job for all of them, none without ties).
    val keyCounts = verified.groupMapReduce(dedupKey)(_ => 1)(_ + _)
    val signatures = contentSignatures(repo, verified.filter(c => keyCounts(dedupKey(c)) > 1).toSeq)
    val seen = scala.collection.mutable.Set[(Set[String], Long, String)]()
    val deduped = verified.filter(c => signatures.get(c.table).forall(seen.add))
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
