package repro.discovery

import scala.collection.mutable
import repro.core.KeyedRows
import repro.core.KeyedRows.{Source, Table}

/** Expand (paper Algorithm 5, Appendix C), on the driver.
  *
  * Candidates that do not contain the source key column(s) cannot align
  * their tuples to the source. For each such candidate we search the join
  * graph — nodes are candidates, an edge connects two candidates sharing
  * a (renamed) column, weighted by [[weights]] — for the maximum-weight
  * path (DFS, as in the paper) ending at a candidate that does contain
  * the key, and join the tables along the path ([[joinCoalesce]]). Gen-T
  * runs it over keyed candidates' rows with one of S's keys, which Set
  * Similarity carries, and keyless ones' rows joinable to those, which
  * `Operators.reaching` collects.
  */
object Expand {

  /** A candidate after expansion: `table` is guaranteed to contain every
    * source key column; `parts` records which candidate tables were
    * joined to build it (== Seq(name) when no join was needed).
    */
  final case class Expanded(name: String, table: Table, parts: Seq[String])

  /** Inner equi-join on one chosen column; other columns appearing on
    * both sides are merged with coalesce (left wins on conflict). Joining
    * on every shared column would be too strict for lake tables: a null
    * on either side of a secondary shared column must not drop the row.
    * A bag: each row of `l`, in order, once per row of `r` with its `on`
    * value (in `r`'s order); a null `on` cell matches nothing. Fails if the
    * join holds more than [[KeyedRows.MaxRows]] rows.
    */
  def joinCoalesce(l: Table, r: Table, on: String): Table = {
    val (li, ri) = (l.columns.indexOf(on), r.columns.indexOf(on))
    val fill = l.columns.map(r.columns.indexOf)
    val rest = r.columns.indices.filterNot(i => l.columns.contains(r.columns(i)))
    val byKey = r.rows.groupBy(_(ri))
    val n = l.rows.iterator.filter(_(li) != null).map(a => byKey.get(a(li)).fold(0L)(_.size)).sum
    if (n > KeyedRows.MaxRows)
      throw new IllegalStateException(s"joining on $on gives $n rows: more than ${KeyedRows.MaxRows}")
    Table(l.columns ++ rest.map(r.columns), for {
      a <- l.rows if a(li) != null
      b <- byKey.getOrElse(a(li), Nil)
    } yield l.columns.indices.map(i => if (a(i) == null && fill(i) >= 0) b(fill(i)) else a(i)) ++
      rest.map(b))
  }

  /** The join weight of `a` and `b` on each column they share: |∩| /
    * min(|a.c|, |b.c|) over the column's distinct non-null values.
    * Columns whose values do not overlap are left out.
    */
  def weights(a: Table, b: Table): Map[String, Double] = weights(values(a), values(b))

  /** Each column's distinct non-null values. */
  private def values(t: Table): Map[String, Set[String]] =
    t.columns.indices.map(i => t.columns(i) -> t.rows.iterator.map(_(i)).filter(_ != null).toSet).toMap

  private def weights(a: Map[String, Set[String]], b: Map[String, Set[String]]): Map[String, Double] =
    a.keys.filter(b.contains).flatMap { c =>
      val m = a(c).count(b(c))
      if (m == 0) None else Some(c -> m.toDouble / math.min(a(c).size, b(c).size))
    }.toMap

  /** Expand every candidate so each output table contains the key.
    *
    * @param tables renamed candidate tables (name → table whose columns
    *               are already source column names)
    * @param source the source; its keys decide which tables are keyed,
    *               and its column order breaks ties between join columns
    * @return expanded candidates; candidates for which no join path to a
    *         keyed table exists are dropped (they cannot align). The
    *         edge weight is the best single join column's weight and the
    *         join is performed on that column (the earliest in the
    *         source on a tie).
    */
  def expandAll(tables: Seq[(String, Table)], source: Source, maxPaths: Int = 2): Seq[Expanded] = {

    val hasKey: Map[String, Boolean] =
      tables.map { case (n, t) => n -> source.keys.forall(t.columns.contains) }.toMap
    val byName = tables.toMap
    val names = tables.map(_._1)

    // Only a keyless candidate's pairs are weighed, each once.
    lazy val tableValues = tables.map { case (n, t) => n -> values(t) }.toMap
    val pairWeights = mutable.Map[Set[String], Map[String, Double]]()
    def colWeights(a: String, b: String): Map[String, Double] =
      pairWeights.getOrElseUpdate(Set(a, b), weights(tableValues(a), tableValues(b)))

    def joinColumn(a: String, b: String): String =
      colWeights(a, b).toSeq.minBy { case (c, w) => (-w, source.table.columns.indexOf(c)) }._1

    def neighbours(n: String): Seq[(String, Double)] =
      names.filter(_ != n).flatMap { m =>
        val cw = colWeights(n, m)
        if (cw.isEmpty) None else Some(m -> cw.values.max)
      }

    // DFS max-weight paths from `start` (keyless) to keyed nodes, as in
    // Algorithm 5 (node_weights / descendant bookkeeping). Returns the
    // best path to each of the top `maxPaths` end nodes: a single path
    // would tie the candidate to one (possibly incomplete) keyed table,
    // while alternative keyed versions can cover the tuples it misses.
    def bestPaths(start: String): Seq[Seq[String]] = {
      val nodeWeights = mutable.Map[String, Double](start -> 0.0)
      val parent = mutable.Map[String, String]()
      val visited = mutable.Set[String](start)
      val ends = mutable.Map[String, Double]()
      val stack = mutable.Stack[String](start)
      while (stack.nonEmpty) {
        val node = stack.pop()
        for ((child, w) <- neighbours(node) if !visited.contains(child)) {
          val cw = nodeWeights(node) + w
          if (cw > nodeWeights.getOrElse(child, Double.NegativeInfinity)) {
            nodeWeights(child) = cw
            parent(child) = node
          }
          if (hasKey(child)) {
            // A keyed node ends the path — joining further tables past the
            // key only adds noise (and with positive weights the "max
            // weight" search would otherwise always prefer longer chains).
            ends(child) = math.max(ends.getOrElse(child, 0.0), cw)
            visited += child
          } else {
            stack.push(child)
            visited += child
          }
        }
      }
      ends.toSeq.sortBy { case (e, w) => (-w, e) }.take(maxPaths).map { case (end, _) =>
        val path = mutable.ListBuffer[String](end)
        var cur = end
        while (parent.contains(cur)) { cur = parent(cur); path.prepend(cur) }
        path.toSeq
      }
    }

    names.flatMap { n =>
      if (hasKey(n)) Seq(Expanded(n, byName(n), Seq(n)))
      else bestPaths(n).map { path =>
        val joined = path.zip(path.tail).foldLeft(byName(path.head)) {
          case (acc, (prev, next)) => joinCoalesce(acc, byName(next), joinColumn(prev, next))
        }
        Expanded(path.mkString("+"), joined, path)
      }
    }.distinct
  }
}
