package perfbench

object Stats {
  def median(xs: Seq[Double]): Double = {
    require(xs.nonEmpty, "median of no samples")
    val s = xs.sorted
    val n = s.length
    if (n % 2 == 1) s(n / 2) else (s(n / 2 - 1) + s(n / 2)) / 2
  }

  /** The highest percentile with at least ten samples beyond it: the value
    * at rank n - 10 of n ascending samples, and that rank as a percentile.
    * It lies above the median only from 21 samples on. With ten samples or
    * fewer no rank qualifies and the lowest sample is returned, which keeps
    * the figure continuous as n crosses eleven.
    */
  def tail(xs: Seq[Double]): (Double, Double) = {
    require(xs.nonEmpty, "tail of no samples")
    val s = xs.sorted
    val rank = math.max(1, s.length - 10)
    (s(rank - 1), 100.0 * rank / s.length)
  }

  /** Length of the union of closed intervals, clipped to [lo, hi]. */
  def covered(intervals: Seq[(Long, Long)], lo: Long, hi: Long): Long = {
    val clipped = intervals.map { case (a, b) => (math.max(a, lo), math.min(b, hi)) }
      .filter { case (a, b) => b > a }.sortBy(_._1)
    var total = 0L
    var curA = Long.MinValue; var curB = Long.MinValue
    clipped.foreach { case (a, b) =>
      if (a > curB) { if (curB > curA) total += curB - curA; curA = a; curB = b }
      else curB = math.max(curB, b)
    }
    if (curB > curA) total += curB - curA
    total
  }
}
