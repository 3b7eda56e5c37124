package repro.core

import repro.core.KeyedRows.{Source, Table}

/** Table Integration (paper Algorithm 2), run on the driver over the
  * rows [[KeyedRows.collect]] brought there.
  *
  * Preprocess: ProjectSelect (π, σ) → InnerUnion of same-schema tables →
  * LabelSourceNulls → TakeMinimalForm (dedupe, β, κ). Integrate: fold the
  * tables with outer union, applying complementation / subsumption after
  * each step only when they do not lower the EIS against the
  * (null-labeled) source — the paper's guard against over-combining.
  * Finally remove the null labels and pad to the source schema.
  */
object Integration {

  /** Prefix of labeled-null tokens (LabelSourceNulls / RemoveLabeledNulls). */
  val NullLabelPrefix = "⟂|"

  private def label(key: Seq[String], column: String): String =
    NullLabelPrefix + key.filter(_ != null).mkString("\u0001") + "|" + column

  /** The source with every null non-key value replaced by its
    * deterministic label token — integration-time similarity is evaluated
    * against this copy so labeled nulls in the tables count as matches.
    */
  def labeledSource(source: Source): Source = {
    val cols = source.table.columns
    val keyIdx = source.keys.map(cols.indexOf)
    Source(Table(cols, source.table.rows.map { r =>
      cols.indices.map { i =>
        if (r(i) == null && !source.keys.contains(cols(i))) label(keyIdx.map(r), cols(i)) else r(i)
      }
    }), source.keys)
  }

  /** LabelSourceNulls (Algorithm 2, line 5): in table `t`, wherever both
    * the table and the aligned source tuple are null in a column, replace
    * the table's null with the same label token used by [[labeledSource]]
    * — so β/κ cannot over-combine away a *correct* null. A row aligned
    * with several source rows (a repeated source key) is emitted once per
    * source row, as the left join it stands for does.
    */
  def labelNulls(t: Table, source: Source): Table = {
    val keyIdx = KeyedRows.requireKeys(t, source.keys)
    val sPos = t.columns.map(source.table.columns.indexOf)
    val labelable = t.columns.indices.filter(i => sPos(i) >= 0 && !source.keys.contains(t.columns(i)))
    Table(t.columns, t.rows.flatMap { r =>
      val key = keyIdx.map(r)
      source.byKey.get(key) match {
        case None => Seq(r)
        case Some(ss) => ss.map { s =>
          labelable.foldLeft(r) { (row, i) =>
            if (row(i) == null && s(sPos(i)) == null) row.updated(i, label(key, t.columns(i))) else row
          }
        }
      }
    })
  }

  /** RemoveLabeledNulls (Algorithm 2, line 14). */
  def removeLabeledNulls(t: Table): Table =
    Table(t.columns, t.rows.map(_.map(v => if (v != null && v.startsWith(NullLabelPrefix)) null else v)))

  /** Algorithm 2 end to end. Input tables must contain the source key. */
  def integrate(tables: Seq[Table], source: Source): Table = {
    if (tables.isEmpty) return Table(source.table.columns, Seq.empty)

    val labeled = labeledSource(source)
    def eis(t: Table): Double = KeyedRows.eis(t, labeled)

    // Lines 3–6: ProjectSelect, InnerUnion, LabelSourceNulls, minimal form.
    val prepared = KeyedRows.innerUnionGroups(tables.map(KeyedRows.projectSelect(_, source)))
      .map(t => KeyedRows.minimalForm(labelNulls(t, source), source.keys))

    // Iterate in descending EIS order (traversal pick order is preserved
    // upstream by Gen-T; standalone callers get a deterministic order).
    val ordered = prepared.map(t => (t, eis(t))).sortBy(-_._2).map(_._1)

    // Lines 8–13: outer union fold with conditional κ and β.
    val result = ordered.tail.foldLeft(ordered.head) { (acc, t) =>
      val merged = KeyedRows.outerUnion(acc, t)
      val comp = KeyedRows.complementation(merged, source.keys)
      val afterComp = if (eis(comp) >= eis(merged)) comp else merged
      val sub = KeyedRows.subsumption(afterComp, source.keys)
      if (eis(sub) >= eis(afterComp)) sub else afterComp
    }

    // Lines 14–16: unlabel, pad missing columns, order as the source.
    KeyedRows.padTo(removeLabeledNulls(result), source.table.columns)
  }
}
