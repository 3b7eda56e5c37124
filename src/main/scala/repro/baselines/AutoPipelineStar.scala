package repro.baselines

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.core.KeyedRows
import repro.core.KeyedRows.{Table, outerUnion, padTo}
import repro.lake.SourceTable

/** Auto-Pipeline* — the paper's re-implementation of Auto-Pipeline's
  * query-search variant (by-target synthesis), restricted to the
  * operator set Gen-T considers: {σ, π, ∪, ⋈, ⟕, ⟗}.
  *
  * Beam search over pipeline states: a state is an intermediate table
  * built from the inputs; expansions join (inner/left/full, natural on
  * shared columns) or outer-union the state with an input table, or apply
  * the target-driven σ/π (restrict to source columns / source key
  * values). States are scored by EIS against the target
  * ([[KeyedRows.eis]]). The target and the inputs are collected once;
  * a target or inputs larger than `rowCap` rows in total return None —
  * the paper's timeout on every benchmark but TP-TR Small.
  */
object AutoPipelineStar {

  final case class Config(
      beamWidth: Int = 3,
      maxDepth: Int = 4,
      rowCap: Int = 20000,
      maxExpansions: Int = 400)

  private final case class State(t: Table, ops: List[String], score: Double)

  def run(
      tables: Seq[DataFrame],
      source: SourceTable,
      spark: SparkSession,
      cfg: Config = Config()): Option[DataFrame] = {
    if (tables.isEmpty) return None

    val srcTable +: inputs = KeyedRows.collectRows(
      (source.df +: tables).map(KeyedRows.limited(_, cfg.rowCap + 1)),
      s"Auto-Pipeline* on ${source.name}")
    if (srcTable.rows.size > cfg.rowCap || inputs.map(_.rows.size).sum > cfg.rowCap) return None
    val src = KeyedRows.Source(srcTable, source.keys)

    def score(t: Table): Double = KeyedRows.eis(t, src)

    def expansions(s: State): Seq[State] = {
      val joins = for {
        (in, i) <- inputs.zipWithIndex
        how <- Seq("inner", "left", "full")
        if s.t.columns.exists(in.columns.contains)
      } yield {
        val t = NaturalJoin(s.t, in, how)
        State(t, s"$how-join(#$i)" :: s.ops, score(t))
      }
      val unions = inputs.zipWithIndex.collect {
        case (in, i) if in.columns.exists(s.t.columns.contains) =>
          val t = outerUnion(s.t, in).distinct
          State(t, s"union(#$i)" :: s.ops, score(t))
      }
      val sigmaPi = {
        val t = KeyedRows.projectSelect(s.t, src).distinct
        Seq(State(t, "select-project" :: s.ops, score(t)))
      }
      joins ++ unions ++ sigmaPi
    }

    var beam: Vector[State] = inputs.map(t => State(t, Nil, score(t))).toVector
      .sortBy(-_.score).take(cfg.beamWidth)
    var best = beam.head
    var depth = 0
    var expanded = 0
    while (depth < cfg.maxDepth && best.score < 1.0 - 1e-12 && expanded < cfg.maxExpansions) {
      val next = beam.flatMap { s =>
        val ex = expansions(s)
        expanded += ex.size
        ex
      }
      val pool = (beam ++ next).sortBy(-_.score)
      beam = pool.take(cfg.beamWidth)
      if (beam.head.score > best.score) best = beam.head
      depth += 1
    }

    Some(KeyedRows.toDf(padTo(best.t, srcTable.columns).distinct, spark))
  }
}
