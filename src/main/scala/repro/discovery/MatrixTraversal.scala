package repro.discovery

import repro.core.{KeyedRows, Operators}

/** Matrix Traversal (paper §V-A2/V-A3, Algorithm 1).
  *
  * Each candidate table is represented as a three-valued alignment matrix
  * against the source: per aligned tuple and non-key column the code is
  *   -  1  if the candidate shares the source's value (null-safe),
  *   -  0  if the source is non-null and the candidate is null,
  *   - −1  otherwise (contradicting non-null, or non-null where the
  *          source is null) — Eq. (4).
  *
  * Matrix initialization and traversal run on the driver, over the
  * expanded tables Expand built there from the rows of Gen-T's one
  * [[KeyedRows.collect]] job (a matrix is at most |S| × |non-key cols| × cap — tiny). The
  * greedy traversal is exactly Algorithm 1: start from the best single
  * matrix and keep adding the table whose Combine() raises the simulated
  * EIS, stopping at convergence.
  *
  * Combine() keeps two aligned tuples separate when they carry a 1 and a
  * −1 at the same position (outer union keeps contradicting tuples
  * apart); otherwise it merges element-wise with "non-zero wins over 0"
  * — the table semantics the matrix simulates (a κ-filled null takes the
  * filler's correctness), see DESIGN.md §3.
  */
object MatrixTraversal {

  type CodeRow = Vector[Int]

  /** Alignment matrix: source-key string → aligned code rows. */
  final case class Matrix(rows: Map[String, Seq[CodeRow]])

  final case class Config(rowsPerKeyCap: Int = 20, rowsPerKeyCombinedCap: Int = 40)

  private val KeySep = "\u0001"

  /** Initialize every table's matrix from the codes of its rows aligned
    * with the source's ([[KeyedRows.codes]]): per key, the
    * `rowsPerKeyCap` code rows with the most 1s (ties in row order), then
    * their distinct values.
    */
  def initMatrices(
      tables: Seq[(String, KeyedRows.Table)],
      source: KeyedRows.Source,
      cfg: Config = Config()): Map[String, Matrix] =
    tables.map { case (name, t) =>
      name -> Matrix(KeyedRows.codes(t, source).map { case (k, cs) =>
        k.mkString(KeySep) -> cs.sortBy(c => -c.count(_ == 1)).take(cfg.rowsPerKeyCap).distinct
      }.toMap)
    }.toMap

  private def conflict(a: CodeRow, b: CodeRow): Boolean =
    a.indices.exists(i => (a(i) == 1 && b(i) == -1) || (a(i) == -1 && b(i) == 1))

  private def mergeCodes(a: CodeRow, b: CodeRow): CodeRow =
    a.indices.map(i => if (a(i) != 0) a(i) else b(i)).toVector

  private[discovery] def rowScore(r: CodeRow): Int =
    r.count(_ == 1) - r.count(_ == -1)

  /** Combine the aligned rows of one key: merge compatible pairs to a
    * fixpoint ([[Operators.mergeToFixpoint]]), keep {1,−1} conflicts
    * separate; the best `cap` rows by score remain.
    */
  private[discovery] def combineRows(
      l1: Seq[CodeRow], l2: Seq[CodeRow], cap: Int): Seq[CodeRow] =
    Operators.mergeToFixpoint(l1 ++ l2)((a, b) => !conflict(a, b), mergeCodes)
      .sortBy(r => -rowScore(r)).take(cap)

  def combine(a: Matrix, b: Matrix, cfg: Config = Config()): Matrix = {
    val keys = a.rows.keySet ++ b.rows.keySet
    Matrix(keys.iterator.map { k =>
      (a.rows.get(k), b.rows.get(k)) match {
        case (Some(x), Some(y)) => k -> combineRows(x, y, cfg.rowsPerKeyCombinedCap)
        case (Some(x), None)    => k -> x
        case (None, Some(y))    => k -> y
        case _                  => k -> Seq.empty
      }
    }.toMap)
  }

  /** Simulated EIS of a matrix (evaluateSimilarity of Algorithm 1):
    * per source tuple the best aligned row's (α−δ); missing keys add 0.
    */
  def evaluate(m: Matrix, nSourceRows: Long, nNonKey: Int): Double = {
    if (nSourceRows == 0) return 1.0
    val n = math.max(1, nNonKey)
    val sum = m.rows.valuesIterator.map { rs =>
      if (rs.isEmpty) 0.0 else 1.0 + rs.map(rowScore).max.toDouble / n
    }.sum
    0.5 * sum / nSourceRows
  }

  /** Algorithm 1: greedy matrix traversal → originating table names (in
    * pick order). Strict improvement required to continue.
    */
  def traverse(
      matrices: Map[String, Matrix],
      nSourceRows: Long,
      nNonKey: Int,
      cfg: Config = Config()): Seq[String] = {
    if (matrices.isEmpty) return Seq.empty
    val eps = 1e-12
    val start = matrices.maxBy { case (n, m) => (evaluate(m, nSourceRows, nNonKey), n) }
    var orig = Vector(start._1)
    var current = start._2
    var best = evaluate(current, nSourceRows, nNonKey)
    var improved = true
    while (improved && orig.size < matrices.size) {
      improved = false
      val candidates = matrices.view.filterKeys(k => !orig.contains(k)).toMap
      if (candidates.nonEmpty) {
        val scored = candidates.map { case (name, m) =>
          val c = combine(current, m, cfg)
          (name, c, evaluate(c, nSourceRows, nNonKey))
        }
        val (bn, bm, bs) = scored.maxBy { case (n, _, s) => (s, n) }
        if (bs > best + eps) {
          orig :+= bn; current = bm; best = bs; improved = true
        }
      }
    }
    orig
  }
}
