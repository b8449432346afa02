//! Search configuration.

use crate::error::ConfigError;

/// The discretisation grid of DS-Search and GI-DS — the one search setting
/// callers vary (the paper sweeps it in Fig. 9).
///
/// The default is the paper's best setting, a 30 × 30 grid.  Everything
/// else the search needs is fixed or derived from the instance: the GPS
/// accuracy is Definition 7's estimate (see [`asp`](crate::asp)), the
/// approximation parameter δ travels on
/// [`QueryRequest::approximate`](crate::QueryRequest::approximate), and
/// the kernel's crossing threshold is a constant.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchConfig {
    /// Number of grid columns used by the `Discretize` procedure (`n_col`).
    pub ncols: usize,
    /// Number of grid rows used by the `Discretize` procedure (`n_row`).
    pub nrows: usize,
}

impl Default for SearchConfig {
    fn default() -> Self {
        Self {
            ncols: 30,
            nrows: 30,
        }
    }
}

impl SearchConfig {
    /// Creates the default configuration.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the discretisation grid granularity (`n_col × n_row`).
    ///
    /// # Errors
    ///
    /// [`ConfigError::GridTooCoarse`] unless both sides are at least 2.
    pub fn with_grid(self, ncols: usize, nrows: usize) -> Result<Self, ConfigError> {
        let config = Self { ncols, nrows };
        config.validate()?;
        Ok(config)
    }

    /// Checks a configuration whose fields were set directly; the engine
    /// builders call it once, before anything is built.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.ncols < 2 || self.nrows < 2 {
            return Err(ConfigError::GridTooCoarse {
                ncols: self.ncols,
                nrows: self.nrows,
            });
        }
        Ok(())
    }
}

/// Checks the approximation parameter δ of an approximate request.
///
/// # Errors
///
/// [`ConfigError::InvalidDelta`] unless δ is finite and non-negative.
pub(crate) fn check_delta(delta: f64) -> Result<f64, ConfigError> {
    if delta.is_finite() && delta >= 0.0 {
        Ok(delta)
    } else {
        Err(ConfigError::InvalidDelta { delta })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_settings() {
        let c = SearchConfig::default();
        assert_eq!(c.ncols, 30);
        assert_eq!(c.nrows, 30);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn builder_methods() {
        let c = SearchConfig::new().with_grid(10, 20).unwrap();
        assert_eq!(c.ncols, 10);
        assert_eq!(c.nrows, 20);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn grid_must_be_nontrivial() {
        assert_eq!(
            SearchConfig::new().with_grid(1, 10),
            Err(ConfigError::GridTooCoarse {
                ncols: 1,
                nrows: 10
            })
        );
        assert_eq!(
            SearchConfig::new().with_grid(5, 0),
            Err(ConfigError::GridTooCoarse { ncols: 5, nrows: 0 })
        );
        assert!(SearchConfig::new().with_grid(2, 2).is_ok());
    }

    #[test]
    fn delta_must_be_finite_and_non_negative() {
        assert_eq!(
            check_delta(-0.1),
            Err(ConfigError::InvalidDelta { delta: -0.1 })
        );
        assert!(check_delta(f64::NAN).is_err());
        assert!(check_delta(f64::INFINITY).is_err());
        assert_eq!(check_delta(0.0), Ok(0.0));
    }

    #[test]
    fn validate_catches_directly_mutated_fields() {
        let c = SearchConfig {
            ncols: 1,
            ..SearchConfig::default()
        };
        assert!(matches!(
            c.validate(),
            Err(ConfigError::GridTooCoarse { .. })
        ));
    }
}
