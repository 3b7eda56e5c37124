package repro.core

import scala.annotation.tailrec
import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.lake.{SourceTable, TableRepo}

/** The paper's integration operators (§IV-B): Outer Union (⊎), Inner
  * Union (∪), Projection (π), Selection (σ), Subsumption (β), and
  * Complementation (κ).
  *
  * The DataFrame operators here (⊎, π, σ) serve ALITE-PS's ProjectSelect
  * and the outer union that [[Fd]] collects; [[reaching]] reads Gen-T's
  * keyless candidates from the lake.
  * β and κ are pairwise tuple operators: two tuples can only subsume or
  * complement each other if they agree on every attribute where both are
  * non-null, so once every tuple carries a non-null source-key value
  * (guaranteed after ProjectSelect/Expand) they reduce to the small
  * per-key closures below, which [[KeyedRows]] runs per key group on the
  * driver. The generic (key-free) variants needed by the ALITE baseline
  * live in [[Fd]].
  */
object Operators {

  /** Outer Union (⊎): union by column name; columns missing on one side
    * are padded with nulls. Commutative and associative.
    */
  def outerUnion(a: DataFrame, b: DataFrame): DataFrame =
    a.unionByName(b, allowMissingColumns = true)

  def outerUnionAll(dfs: Seq[DataFrame]): DataFrame = {
    require(dfs.nonEmpty, "outerUnionAll of zero tables")
    dfs.reduce(outerUnion)
  }

  /** Project `df` onto the columns of the source it actually has,
    * in source order (π of Algorithm 2's ProjectSelect).
    */
  def projectToSource(df: DataFrame, source: SourceTable): DataFrame = {
    val keep = source.df.columns.filter(df.columns.contains).toIndexedSeq
    df.select(keep.map(col): _*)
  }

  /** Select tuples whose key value appears among the source's key values
    * (σ of Algorithm 2's ProjectSelect) — a distributed semi-join.
    * Tables missing some key column are returned unchanged (Gen-T
    * expands them on the driver; ALITE-PS keeps them whole).
    */
  def selectSourceKeys(df: DataFrame, source: SourceTable): DataFrame =
    if (!source.keys.forall(df.columns.contains)) df
    else {
      val sk = source.df.select(source.keys.map(col): _*).distinct()
      df.join(sk, source.keys, "left_semi")
    }

  /** `source` and the `keyless` lake tables on the driver, each table
    * given as its name and a renaming (lake column → name), and kept on
    * its renamed columns in name order (as
    * [[repro.discovery.SetSimilarity.renamed]]), restricted to the rows a
    * chain of equi-joins on shared names links to a row of `keyed`, the
    * tables with S's key already on the driver (level 0). Level by level,
    * a table sharing a name with the previous level keeps its rows holding
    * one of that level's distinct non-null values in a shared column (an
    * `isin` per column, OR'd): a bag, and a null matches nothing. One
    * Spark job per level collects its tables in one scan
    * ([[TableRepo.scan]]), S with the first; a table no chain reaches is
    * read by none and keeps no row.
    */
  def reaching(
      repo: TableRepo,
      source: SourceTable,
      keyed: Seq[KeyedRows.Table],
      keyless: Seq[(String, Map[String, String])]): (KeyedRows.Source, Seq[KeyedRows.Table]) = {
    val renames = keyless.map { case (_, m) => m.toIndexedSeq.sortBy(_._2) }
    def shared(i: Int, level: Seq[KeyedRows.Table]) =
      renames(i).filter { case (_, n) => level.exists(_.columns.contains(n)) }
    def values(level: Seq[KeyedRows.Table], c: String): Seq[String] =
      level.flatMap(t => t.columns.indexOf(c) match {
        case -1 => Nil
        case i => t.rows.map(_(i))
      }).filter(_ != null).distinct
    // The tables of `rest` that `level` reaches, and the rows each one
    // reads, on the names of its columns.
    def next(level: Seq[KeyedRows.Table], rest: Seq[Int]): (Seq[Int], KeyedRows.Tagged) = {
      val reached = rest.filter(shared(_, level).nonEmpty)
      reached -> repo.scan(reached.map(i => TableRepo.Read(keyless(i)._1,
        shared(i, level).map { case (c, n) => col(c).isin(values(level, n): _*) }.reduce(_ || _),
        renames(i).map(_._1)))).copy(columns = reached.map(i => renames(i).map(_._2)).toIndexedSeq)
    }
    @tailrec def kept(
        level: Seq[KeyedRows.Table], rest: Seq[Int],
        done: Map[Int, KeyedRows.Table]): Map[Int, KeyedRows.Table] = {
      val (reached, reads) = next(level, rest)
      if (reached.isEmpty) done
      else {
        val rows = KeyedRows.collectTagged(reads, s"a chain level of source ${source.name}")
        kept(rows, rest.diff(reached), done ++ reached.zip(rows))
      }
    }
    val (first, reads) = next(keyed, keyless.indices)
    val rows = KeyedRows.collectTagged(KeyedRows.tagged(Seq(source.df)) ++ reads, s"source ${source.name}")
    val done = kept(rows.tail, keyless.indices.diff(first), first.zip(rows.tail).toMap)
    (KeyedRows.Source(rows.head, source.keys), keyless.indices.map(i =>
      done.getOrElse(i, KeyedRows.Table(renames(i).map(_._2), Seq.empty))))
  }

  /** ProjectSelect of Algorithm 2, line 3. */
  def projectSelect(df: DataFrame, source: SourceTable): DataFrame =
    selectSourceKeys(projectToSource(df, source), source)

  // ---------------------------------------------------------------------
  // Pairwise tuple predicates over rows represented as Seq[String]
  // (null = ⊥). Shared by the key-grouped operators of KeyedRows and the
  // generic full-disjunction closure in Fd.
  // ---------------------------------------------------------------------

  /** a subsumes b: wherever b is non-null they agree, and a is non-null
    * somewhere b is null.
    */
  private[core] def subsumes(a: Seq[String], b: Seq[String]): Boolean = {
    var strict = false
    var i = 0
    while (i < a.length) {
      val x = a(i); val y = b(i)
      if (y != null && x != y) return false
      if (y == null && x != null) strict = true
      i += 1
    }
    strict
  }

  /** a and b complement: agree on all both-non-null attributes, share at
    * least one non-null value, and each has a non-null where the other
    * has a null.
    */
  private[core] def complement(a: Seq[String], b: Seq[String]): Boolean = {
    var share = false; var aOnly = false; var bOnly = false
    var i = 0
    while (i < a.length) {
      val x = a(i); val y = b(i)
      if (x != null && y != null) { if (x != y) return false; share = true }
      else if (x != null) aOnly = true
      else if (y != null) bOnly = true
      i += 1
    }
    share && aOnly && bOnly
  }

  private[core] def merge(a: Seq[String], b: Seq[String]): Seq[String] =
    a.indices.map(i => if (a(i) != null) a(i) else b(i))

  /** Remove duplicates and subsumed tuples from a small in-memory group. */
  private[core] def subsumeGroup(rows: Seq[Seq[String]]): Seq[Seq[String]] = {
    val distinct = rows.distinct
    distinct.filterNot(r => distinct.exists(r2 => !(r2 eq r) && r2 != r && subsumes(r2, r)))
  }

  /** Apply κ within a small in-memory group: [[mergeToFixpoint]] of
    * [[complement]] and [[merge]].
    */
  private[core] def complementGroup(rows: Seq[Seq[String]]): Seq[Seq[String]] =
    mergeToFixpoint(rows)(complement, merge)

  /** The κ fixpoint loop, over any row type: starting from the distinct
    * `rows`, repeatedly replace the first pair (in scan order) that
    * `mergeable` accepts with its `merge` (appended unless already there),
    * until no pair is mergeable.
    */
  private[repro] def mergeToFixpoint[R](rows: Seq[R])(
      mergeable: (R, R) => Boolean, merge: (R, R) => R): Seq[R] = {
    val cur = rows.distinct.toBuffer
    var changed = true
    while (changed) {
      changed = false
      var i = 0
      while (i < cur.length && !changed) {
        var j = i + 1
        while (j < cur.length && !changed) {
          if (mergeable(cur(i), cur(j))) {
            val m = merge(cur(i), cur(j))
            cur.remove(j); cur.remove(i)
            if (!cur.contains(m)) cur.append(m)
            changed = true
          }
          j += 1
        }
        i += 1
      }
    }
    cur.toSeq
  }
}
