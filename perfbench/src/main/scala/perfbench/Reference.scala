package perfbench

import java.nio.file.Path
import java.sql.DriverManager

import org.apache.spark.sql.DataFrame

/** Reference answers computed outside the program: the inputs are written
  * to Parquet once per run and DuckDB runs the query's reference SQL over
  * `read_parquet` views of them.
  */
object Reference {

  def compute(inputs: Map[String, DataFrame], sql: String, dir: Path): Answer = {
    val files = inputs.map { case (name, df) =>
      val p = dir.resolve(name).toAbsolutePath
      df.write.mode("overwrite").parquet(p.toString)
      name -> p
    }
    Class.forName("org.duckdb.DuckDBDriver")
    val conn = DriverManager.getConnection("jdbc:duckdb:")
    try {
      val st = conn.createStatement()
      st.execute("SET threads = 2")
      st.execute(s"SET temp_directory = '${dir.resolve("duckdb-tmp").toAbsolutePath}'")
      files.foreach { case (name, p) =>
        st.execute(s"CREATE VIEW $name AS SELECT * FROM read_parquet('$p/*.parquet')")
      }
      val rs = st.executeQuery(sql)
      val meta = rs.getMetaData
      val cols = (1 to meta.getColumnCount).map(meta.getColumnLabel)
      val rows = Iterator.continually(rs).takeWhile(_.next())
        .map(r => cols.indices.map(i => r.getDouble(i + 1)))
        .toVector
      Answer(cols, rows)
    } finally conn.close()
  }
}
