package repro.baselines

import scala.collection.mutable
import repro.core.KeyedRows.Table

/** The natural join (⋈, ⟕, ⟗) of the Auto-Pipeline* and Ver baselines,
  * over driver-side tables. Both baselines collect their capped inputs
  * once and then evaluate hundreds of intermediate tables; a Spark job
  * per pipeline step would measure scheduler latency, not the search.
  */
object NaturalJoin {

  /** `l` joined with `r` on every column they share, by null-rejecting
    * equality as in SQL's `JOIN … ON`: `l`'s columns, then `r`'s others;
    * distinct rows. `how` is inner, left or full. Unmatched rows of a
    * left or full join are padded with nulls; a full join's right-only
    * rows, which include every row of `r` with a null key cell, take the
    * shared cells from `r`.
    */
  def apply(l: Table, r: Table, how: String): Table = {
    require(Set("inner", "left", "full")(how), s"join type $how")
    val shared = l.columns.filter(r.columns.contains)
    require(shared.nonEmpty, s"natural join of ${l.columns} and ${r.columns}: no shared column")
    val li = shared.map(l.columns.indexOf)
    val ri = shared.map(r.columns.indexOf)
    val rExtra = r.columns.indices.filterNot(i => l.columns.contains(r.columns(i)))
    val rIndex = r.rows.groupBy(row => ri.map(row))
    val nullsR = Seq.fill(rExtra.size)(null: String)
    val matched = mutable.Set[Seq[String]]()
    val out = mutable.ArrayBuffer[Seq[String]]()
    for (row <- l.rows) {
      val k = li.map(row)
      val ms = if (k.contains(null)) Seq.empty else rIndex.getOrElse(k, Seq.empty)
      if (ms.nonEmpty) {
        matched += k
        ms.foreach(m => out += row ++ rExtra.map(m))
      } else if (how != "inner") out += row ++ nullsR
    }
    if (how == "full") {
      val fromR = l.columns.map(r.columns.indexOf)
      for (row <- r.rows) {
        val k = ri.map(row)
        if (!matched(k))
          out += fromR.map(i => if (i >= 0) row(i) else null) ++ rExtra.map(row)
      }
    }
    Table(l.columns ++ rExtra.map(r.columns), out.toSeq).distinct
  }
}
