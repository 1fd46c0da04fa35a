//! Reads the Prometheus text the container serves on `GET /metrics`.
//!
//! Per-layer counts are before/after deltas of the series production
//! already exposes, so the numbers here and on a dashboard are the same
//! numbers.

/// One scrape: every sample line, in order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Scrape {
    series: Vec<Series>,
}

#[derive(Debug, Clone, PartialEq)]
struct Series {
    name: String,
    labels: Vec<(String, String)>,
    value: f64,
}

impl Scrape {
    /// Parses exposition text; comment lines and lines that do not parse
    /// are skipped.
    pub fn parse(text: &str) -> Scrape {
        Scrape {
            series: text.lines().filter_map(parse_line).collect(),
        }
    }

    /// Sum of every series called `name` that carries all of `labels`;
    /// 0 when none does (a counter nobody has touched yet is absent).
    pub fn sum(&self, name: &str, labels: &[(&str, &str)]) -> f64 {
        self.series
            .iter()
            .filter(|s| s.name == name)
            .filter(|s| {
                labels
                    .iter()
                    .all(|(k, v)| s.labels.iter().any(|(sk, sv)| sk == k && sv == v))
            })
            .map(|s| s.value)
            .sum()
    }
}

/// `after − before` for one selector.
pub fn delta(before: &Scrape, after: &Scrape, name: &str, labels: &[(&str, &str)]) -> f64 {
    after.sum(name, labels) - before.sum(name, labels)
}

fn parse_line(line: &str) -> Option<Series> {
    let line = line.trim();
    if line.is_empty() || line.starts_with('#') {
        return None;
    }
    let (name, labels, rest) = match line.find('{') {
        Some(open) => {
            let (labels, rest) = parse_labels(&line[open + 1..])?;
            (&line[..open], labels, rest)
        }
        None => {
            let (name, rest) = line.split_once(' ')?;
            (name, Vec::new(), rest)
        }
    };
    // A timestamp may follow the value.
    let value = rest.split_whitespace().next()?.parse().ok()?;
    Some(Series {
        name: name.to_string(),
        labels,
        value,
    })
}

/// Parses `k="v",k2="v2"} rest`, undoing the `\\`, `\"` and `\n` escapes.
fn parse_labels(mut s: &str) -> Option<(Vec<(String, String)>, &str)> {
    let mut labels = Vec::new();
    loop {
        s = s.trim_start_matches([',', ' ']);
        if let Some(rest) = s.strip_prefix('}') {
            return Some((labels, rest));
        }
        let (key, rest) = s.split_once("=\"")?;
        let mut value = String::new();
        let mut chars = rest.char_indices();
        let end = loop {
            match chars.next()? {
                (i, '"') => break i,
                (_, '\\') => match chars.next()?.1 {
                    'n' => value.push('\n'),
                    c => value.push(c),
                },
                (_, c) => value.push(c),
            }
        };
        labels.push((key.to_string(), value));
        s = &rest[end + 1..];
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BEFORE: &str = "\
# HELP mc_cache_hits_total submissions answered from the result memo cache
# TYPE mc_cache_hits_total counter
mc_cache_hits_total{container=\"jobpath#0\",service=\"double\"} 16
mc_cache_hits_total{container=\"other#1\",service=\"double\"} 1000
mc_job_journal_appends_total 48
mc_job_wait_seconds_bucket{container=\"jobpath#0\",le=\"0.001\"} 7
mc_job_wait_seconds_sum{container=\"jobpath#0\"} 0.0125
mc_job_wait_seconds_count{container=\"jobpath#0\"} 16
weird{quote=\"a\\\"b,c}\",nl=\"x\\ny\"} 2 1700000000
this line is garbage
";

    #[test]
    fn sums_select_by_name_and_labels() {
        let s = Scrape::parse(BEFORE);
        assert_eq!(
            s.sum("mc_cache_hits_total", &[("container", "jobpath#0")]),
            16.0
        );
        assert_eq!(s.sum("mc_cache_hits_total", &[]), 1016.0);
        assert_eq!(s.sum("mc_job_journal_appends_total", &[]), 48.0);
        assert_eq!(s.sum("mc_job_wait_seconds_sum", &[]), 0.0125);
        assert_eq!(s.sum("never_registered_total", &[]), 0.0);
        // Escapes, a comma and a brace inside a value, and a timestamp.
        assert_eq!(s.sum("weird", &[("quote", "a\"b,c}"), ("nl", "x\ny")]), 2.0);
    }

    #[test]
    fn deltas_subtract_the_earlier_scrape() {
        let before = Scrape::parse(BEFORE);
        let after = Scrape::parse(
            "mc_cache_hits_total{container=\"jobpath#0\",service=\"double\"} 416\n\
             mc_job_journal_appends_total 48\n\
             mc_cache_misses_total{container=\"jobpath#0\",service=\"double\"} 3\n",
        );
        let me = [("container", "jobpath#0")];
        assert_eq!(delta(&before, &after, "mc_cache_hits_total", &me), 400.0);
        assert_eq!(
            delta(&before, &after, "mc_job_journal_appends_total", &[]),
            0.0
        );
        // Absent before, present after.
        assert_eq!(delta(&before, &after, "mc_cache_misses_total", &me), 3.0);
    }
}
