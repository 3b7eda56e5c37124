package repro.core

import scala.annotation.tailrec
import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.lake.SourceTable

/** The paper's integration operators (§IV-B): Outer Union (⊎), Inner
  * Union (∪), Projection (π), Selection (σ), Subsumption (β), and
  * Complementation (κ).
  *
  * The DataFrame operators here (⊎, π, σ) serve the semi-join of Gen-T's
  * one collect, ALITE-PS's ProjectSelect and the outer union that [[Fd]]
  * collects.
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

  /** `frames`, each one lacking a column of `keys` restricted to the rows
    * a chain of equi-joins on shared columns links to a row of a frame with
    * every key: level by level, a frame keeps its rows that share a value
    * with the previous level's kept rows in a column they share (a bag; a
    * null matches nothing). A frame no chain reaches keeps no row.
    */
  def reaching(frames: Seq[DataFrame], keys: Seq[String]): Seq[DataFrame] = {
    def shares(df: DataFrame, level: Seq[DataFrame], c: String) =
      df.columns.contains(c) && level.exists(_.columns.contains(c))
    // A left outer join per shared column, then a filter: duplicates stay.
    def joinable(df: DataFrame, level: Seq[DataFrame]): DataFrame = {
      val on = df.columns.toIndexedSeq.filter(shares(df, level, _))
      on.indices.foldLeft(df) { (acc, i) =>
        val values = level.filter(_.columns.contains(on(i))).map(_.select(col(on(i)).as(s"__hit$i")))
        acc.join(values.reduce(_ union _).distinct(), col(on(i)) === col(s"__hit$i"), "left_outer")
      }.filter(on.indices.map(i => col(s"__hit$i").isNotNull).reduce(_ || _))
        .select(df.columns.toIndexedSeq.map(col): _*)
    }
    @tailrec def kept(
        level: Seq[DataFrame], rest: Seq[Int], done: Map[Int, DataFrame]): Map[Int, DataFrame] = {
      val next = rest.filter(i => frames(i).columns.exists(shares(frames(i), level, _)))
        .map(i => i -> joinable(frames(i), level))
      if (next.isEmpty) done else kept(next.map(_._2), rest.diff(next.map(_._1)), done ++ next)
    }
    val (keyed, keyless) = frames.indices.partition(i => keys.forall(frames(i).columns.contains))
    val done = kept(keyed.map(frames), keyless, keyed.map(i => i -> frames(i)).toMap)
    frames.indices.map(i => done.getOrElse(i, frames(i).filter(lit(false))))
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
