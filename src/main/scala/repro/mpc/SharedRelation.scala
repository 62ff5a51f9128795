package repro.mpc

/** A relation protected by an MPC engine.
  *
  * Every cell is an engine value ([[MpcVal]]) holding a fixed-point encoded
  * data value. `validity`, when present, is a column of raw 0/1 flags: rows
  * whose flag is 0 have been obliviously filtered out but are still carried
  * (size-hiding, order-preserving filtering — see `Oblivious.filter`).
  *
  * The row count of a shared relation is public (standard MPC treatment of
  * input lengths, paper §3.2); the validity pattern is not.
  */
final case class SharedRelation(
    schema: Vector[String],
    rows: Vector[Vector[MpcVal]],
    validity: Option[Vector[MpcVal]] = None,
) {
  require(rows.forall(_.length == schema.length),
    s"row arity mismatch against schema $schema")
  require(validity.forall(_.length == rows.length), "validity length mismatch")

  def size: Int = rows.length
  def width: Int = schema.length

  def colIdx(name: String): Int = {
    val i = schema.indexOf(name)
    require(i >= 0, s"no column '$name' in $schema")
    i
  }

  def colIdxs(names: Seq[String]): Vector[Int] = names.map(colIdx).toVector
}

/** Column layout of every join's output: left keys ++ left rest ++ right
  * rest (the right keys equal the left ones and are dropped). `left` and
  * `right` give each side's share of a row, `apply` the joined row.
  */
final class JoinLayout(lKeys: Seq[Int], rKeys: Seq[Int], lWidth: Int, rWidth: Int) {
  private val lCols = lKeys ++ (0 until lWidth).filterNot(lKeys.contains)
  private val rCols = (0 until rWidth).filterNot(rKeys.contains)

  def left[A](row: IndexedSeq[A]): Vector[A] = lCols.iterator.map(row).toVector
  def right[A](row: IndexedSeq[A]): Vector[A] = rCols.iterator.map(row).toVector
  def apply[A](l: IndexedSeq[A], r: IndexedSeq[A]): Vector[A] = left(l) ++ right(r)
}
