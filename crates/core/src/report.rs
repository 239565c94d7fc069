//! The Markdown table formatter shared by the study reports, the examples and the benchmark
//! harness.

/// Renders a Markdown table.
///
/// # Panics
///
/// Panics if any row has a different number of columns than the header.
pub fn markdown_table(headers: &[String], rows: &[Vec<String>]) -> String {
    for row in rows {
        assert_eq!(
            row.len(),
            headers.len(),
            "every row must have one cell per header"
        );
    }
    let mut out = String::new();
    out.push_str("| ");
    out.push_str(&headers.join(" | "));
    out.push_str(" |\n|");
    for _ in headers {
        out.push_str(" --- |");
    }
    out.push('\n');
    for row in rows {
        out.push_str("| ");
        out.push_str(&row.join(" | "));
        out.push_str(" |\n");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn headers() -> Vec<String> {
        vec!["k".to_string(), "error (%)".to_string()]
    }

    #[test]
    fn markdown_structure() {
        let table = markdown_table(
            &headers(),
            &[
                vec!["2".to_string(), "4.3".to_string()],
                vec!["5".to_string(), "2.1".to_string()],
            ],
        );
        let lines: Vec<&str> = table.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("| k |"));
        assert!(lines[1].contains("---"));
        assert!(lines[3].contains("2.1"));
    }

    #[test]
    #[should_panic(expected = "one cell per header")]
    fn ragged_rows_rejected() {
        let _ = markdown_table(&headers(), &[vec!["2".to_string()]]);
    }
}
