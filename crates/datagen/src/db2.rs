//! The DB2-sample-database stand-in (Section 8.1 of the paper).
//!
//! The paper joins the EMPLOYEE, DEPARTMENT and PROJECT tables of IBM
//! DB2's pre-installed sample into one relation:
//! `R = (E ⋈_{WorkDepNo=DepNo} D) ⋈_{DepNo=DeptNo} P`
//! — 90 tuples over 19 attributes. We synthesize the same structure:
//! 7 departments, 19 employees and 28 projects, joined so that every
//! (employee, project) pair within a department becomes one tuple —
//! exactly 90 of them.
//!
//! Embedded ground truth (what the experiments must rediscover):
//! * `DepNo → DepName, MgrNo, AdminDepNo` — 7 distinct values, the most
//!   redundant group;
//! * `EmpNo → FirstName, LastName, PhoneNo, HireYear, Job, EduLevel,
//!   Sex, BirthYear, DepNo` — 19 distinct;
//! * `ProjNo → ProjName, RespEmpNo, StartDate, EndDate, MajorProjNo,
//!   DepNo` — 28 distinct;
//! * cross-attribute duplication: `MgrNo`/`RespEmpNo` hold employee
//!   numbers, `MajorProjNo` holds project numbers, `AdminDepNo` holds
//!   department numbers.

use dbmine_relation::{Relation, RelationBuilder};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The 19 attributes of the joined relation, in schema order.
pub const DB2_ATTRS: [&str; 19] = [
    "EmpNo",
    "FirstName",
    "LastName",
    "PhoneNo",
    "HireYear",
    "Job",
    "EduLevel",
    "Sex",
    "BirthYear",
    "DepNo",
    "DepName",
    "MgrNo",
    "AdminDepNo",
    "ProjNo",
    "ProjName",
    "RespEmpNo",
    "StartDate",
    "EndDate",
    "MajorProjNo",
];

/// Employees per department (sums to 19).
const EMPS_PER_DEPT: [usize; 7] = [5, 4, 3, 3, 2, 1, 1];
/// Projects per department (sums to 28; Σ e·p = 90 join tuples).
const PROJS_PER_DEPT: [usize; 7] = [7, 5, 4, 4, 3, 2, 3];

/// Generator parameters.
#[derive(Clone, Copy, Debug)]
pub struct Db2Spec {
    /// RNG seed (the relation is fully deterministic given the seed).
    pub seed: u64,
}

impl Default for Db2Spec {
    fn default() -> Self {
        Db2Spec { seed: 2004 }
    }
}

/// The generated sample plus its ground truth.
#[derive(Clone, Debug)]
pub struct Db2Sample {
    /// The joined relation: 90 tuples × 19 attributes.
    pub relation: Relation,
    /// The normalized EMPLOYEE base table (19 × 10, includes WorkDepNo).
    pub employee: Relation,
    /// The normalized DEPARTMENT base table (7 × 4).
    pub department: Relation,
    /// The normalized PROJECT base table (28 × 7, includes DeptNo).
    pub project: Relation,
    /// Number of departments (7).
    pub n_departments: usize,
    /// Number of employees (19).
    pub n_employees: usize,
    /// Number of projects (28).
    pub n_projects: usize,
}

struct Employee {
    emp_no: String,
    first: String,
    last: String,
    phone: String,
    hire_year: String,
    job: String,
    edu: String,
    sex: String,
    birth_year: String,
    dept: usize,
}

struct Project {
    proj_no: String,
    name: String,
    resp_emp: String,
    start: String,
    end: String,
    major: String,
    dept: usize,
}

const FIRST_NAMES: [&str; 19] = [
    "Christine",
    "Michael",
    "Sally",
    "John",
    "Irving",
    "Eva",
    "Eileen",
    "Theodore",
    "Vincenzo",
    "Sean",
    "Dolores",
    "Heather",
    "Bruce",
    "Elizabeth",
    "Masatoshi",
    "Marilyn",
    "James",
    "David",
    "William",
];
const LAST_NAMES: [&str; 19] = [
    "Haas",
    "Thompson",
    "Kwan",
    "Geyer",
    "Stern",
    "Pulaski",
    "Henderson",
    "Spenser",
    "Lucchessi",
    "OConnell",
    "Quintana",
    "Nicholls",
    "Adamson",
    "Pianka",
    "Yoshimura",
    "Scoutten",
    "Walker",
    "Brown",
    "Jones",
];
const DEPT_NAMES: [&str; 7] = [
    "Spiffy-Computer-Service",
    "Planning",
    "Information-Center",
    "Development-Center",
    "Manufacturing-Systems",
    "Administration-Systems",
    "Support-Services",
];
const PROJ_WORDS: [&str; 28] = [
    "Admin-Services",
    "Weld-Line-Automation",
    "Query-Services",
    "User-Education",
    "Operation-Support",
    "Payroll-Programming",
    "Account-Programming",
    "General-Admin",
    "Scp-System",
    "Apple-Systems",
    "Site-Security",
    "Data-Center",
    "Branch-Support",
    "Warehouse-Design",
    "Inventory-Control",
    "Shipping-Control",
    "Billing-System",
    "Order-Entry",
    "Product-Design",
    "Process-Control",
    "Quality-Audit",
    "Field-Support",
    "Customer-Care",
    "Network-Build",
    "Tool-Migration",
    "Doc-Refresh",
    "Perf-Tuning",
    "Release-Mgmt",
];
const JOBS: [&str; 5] = ["Manager", "Analyst", "Designer", "Clerk", "Operator"];
const START_DATES: [&str; 3] = ["2002-01-01", "2002-06-15", "2003-01-01"];
const END_DATES: [&str; 3] = ["2003-06-30", "2003-12-31", "2004-09-30"];

/// Generates the sample.
pub fn db2_sample(spec: &Db2Spec) -> Db2Sample {
    let mut rng = StdRng::seed_from_u64(spec.seed);

    // Employees, department by department.
    let mut employees: Vec<Employee> = Vec::with_capacity(19);
    let mut idx = 0usize;
    for (dept, &count) in EMPS_PER_DEPT.iter().enumerate() {
        for _ in 0..count {
            employees.push(Employee {
                emp_no: format!("E{:03}", idx + 1),
                first: FIRST_NAMES[idx].to_string(),
                last: LAST_NAMES[idx].to_string(),
                phone: format!("555-{:04}", 100 + idx),
                hire_year: format!("{}", 1995 + rng.gen_range(0..8)),
                job: JOBS[rng.gen_range(0..JOBS.len())].to_string(),
                edu: format!("{}", 12 + 2 * rng.gen_range(0..4)),
                sex: if rng.gen_bool(0.5) { "F" } else { "M" }.to_string(),
                birth_year: format!("{}", 1950 + rng.gen_range(0..5) * 5),
                dept,
            });
            idx += 1;
        }
    }

    // Departments: manager = first employee of the department.
    let dep_no = |d: usize| format!("D{:02}", d + 1);
    let managers: Vec<String> = (0..7)
        .map(|d| {
            employees
                .iter()
                .find(|e| e.dept == d)
                .expect("every department has an employee")
                .emp_no
                .clone()
        })
        .collect();

    // Projects, department by department; the major project is the first
    // project of each group of three within the department (so MajorProjNo
    // determines the department but not vice versa, as in the original).
    let mut projects: Vec<Project> = Vec::with_capacity(28);
    let mut pidx = 0usize;
    for (dept, &count) in PROJS_PER_DEPT.iter().enumerate() {
        let dept_first = pidx;
        for _ in 0..count {
            let major = format!("P{:03}", dept_first + (pidx - dept_first) / 3 * 3 + 1);
            let dept_emps: Vec<&Employee> = employees.iter().filter(|e| e.dept == dept).collect();
            let resp = dept_emps[rng.gen_range(0..dept_emps.len())];
            projects.push(Project {
                proj_no: format!("P{:03}", pidx + 1),
                name: PROJ_WORDS[pidx].to_string(),
                resp_emp: resp.emp_no.clone(),
                start: START_DATES[rng.gen_range(0..START_DATES.len())].to_string(),
                end: END_DATES[rng.gen_range(0..END_DATES.len())].to_string(),
                major,
                dept,
            });
            pidx += 1;
        }
    }

    // The normalized base tables (what a redesign should approximate).
    let mut emp_b = RelationBuilder::new(
        "EMPLOYEE",
        &[
            "EmpNo",
            "FirstName",
            "LastName",
            "PhoneNo",
            "HireYear",
            "Job",
            "EduLevel",
            "Sex",
            "BirthYear",
            "WorkDepNo",
        ],
    );
    for e in &employees {
        let dn = dep_no(e.dept);
        emp_b.push_row_strs(&[
            &e.emp_no,
            &e.first,
            &e.last,
            &e.phone,
            &e.hire_year,
            &e.job,
            &e.edu,
            &e.sex,
            &e.birth_year,
            &dn,
        ]);
    }
    let mut dep_b =
        RelationBuilder::new("DEPARTMENT", &["DepNo", "DepName", "MgrNo", "AdminDepNo"]);
    for d in 0..7 {
        let dn = dep_no(d);
        let admin = dep_no(if d < 3 { 0 } else { 1 });
        dep_b.push_row_strs(&[&dn, DEPT_NAMES[d], &managers[d], &admin]);
    }
    let mut proj_b = RelationBuilder::new(
        "PROJECT",
        &[
            "ProjNo",
            "ProjName",
            "RespEmpNo",
            "StartDate",
            "EndDate",
            "MajorProjNo",
            "DeptNo",
        ],
    );
    for p in &projects {
        let dn = dep_no(p.dept);
        proj_b.push_row_strs(&[
            &p.proj_no,
            &p.name,
            &p.resp_emp,
            &p.start,
            &p.end,
            &p.major,
            &dn,
        ]);
    }

    // The join: every (employee, project) pair within a department.
    let mut b = RelationBuilder::new("db2_sample", &DB2_ATTRS);
    for e in &employees {
        for p in projects.iter().filter(|p| p.dept == e.dept) {
            let d = e.dept;
            let dn = dep_no(d);
            let admin = dep_no(if d < 3 { 0 } else { 1 });
            let row: Vec<&str> = vec![
                &e.emp_no,
                &e.first,
                &e.last,
                &e.phone,
                &e.hire_year,
                &e.job,
                &e.edu,
                &e.sex,
                &e.birth_year,
                &dn,
                DEPT_NAMES[d],
                &managers[d],
                &admin,
                &p.proj_no,
                &p.name,
                &p.resp_emp,
                &p.start,
                &p.end,
                &p.major,
            ];
            b.push_row_strs(&row);
        }
    }

    Db2Sample {
        relation: b.build(),
        employee: emp_b.build(),
        department: dep_b.build(),
        project: proj_b.build(),
        n_departments: 7,
        n_employees: employees.len(),
        n_projects: projects.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbmine_relation::StrippedPartition;

    #[test]
    fn shape_matches_paper() {
        // "Relation R contains 90 tuples with 19 attributes."
        let s = db2_sample(&Db2Spec::default());
        assert_eq!(s.relation.n_tuples(), 90);
        assert_eq!(s.relation.n_attrs(), 19);
        assert_eq!(s.n_departments, 7);
        assert_eq!(s.n_employees, 19);
        assert_eq!(s.n_projects, 28);
    }

    #[test]
    fn distinct_counts() {
        let s = db2_sample(&Db2Spec::default());
        let r = &s.relation;
        let col =
            |name: &str| StrippedPartition::of_attr(r, r.attr_id(name).unwrap()).class_count();
        assert_eq!(col("DepNo"), 7);
        assert_eq!(col("DepName"), 7);
        assert_eq!(col("MgrNo"), 7);
        assert_eq!(col("EmpNo"), 19);
        assert_eq!(col("ProjNo"), 28);
        assert_eq!(col("AdminDepNo"), 2);
    }

    #[test]
    fn key_fds_hold() {
        use dbmine_oracles::fd_holds;
        let s = db2_sample(&Db2Spec::default());
        let r = &s.relation;
        let a = |n: &str| r.attr_id(n).unwrap();
        let set1 = |n: &str| dbmine_relation::AttrSet::single(a(n));
        // DepNo → DepName, MgrNo.
        assert!(fd_holds(r, set1("DepNo"), a("DepName")));
        assert!(fd_holds(r, set1("DepNo"), a("MgrNo")));
        // EmpNo → everything personal + department.
        for rhs in ["FirstName", "LastName", "PhoneNo", "HireYear", "DepNo"] {
            assert!(fd_holds(r, set1("EmpNo"), a(rhs)), "EmpNo→{rhs}");
        }
        // ProjNo → project attributes.
        for rhs in [
            "ProjName",
            "RespEmpNo",
            "StartDate",
            "EndDate",
            "MajorProjNo",
            "DepNo",
        ] {
            assert!(fd_holds(r, set1("ProjNo"), a(rhs)), "ProjNo→{rhs}");
        }
        // (EmpNo, ProjNo) is the key.
        let key = set1("EmpNo").union(set1("ProjNo"));
        assert!(fd_holds(r, key, a("Job")));
        // EmpNo alone is not a key (multiple projects per employee).
        assert!(!fd_holds(r, set1("EmpNo"), a("ProjNo")));
    }

    #[test]
    fn cross_attribute_value_sharing() {
        // MgrNo values are EmpNo values; MajorProjNo values are ProjNo
        // values — the duplication attribute grouping feeds on.
        let s = db2_sample(&Db2Spec::default());
        let r = &s.relation;
        let mgr = r.attr_id("MgrNo").unwrap();
        let emp = r.attr_id("EmpNo").unwrap();
        let mgr_val = r.value(0, mgr);
        assert!(
            (0..r.n_tuples()).any(|t| r.value(t, emp) == mgr_val),
            "manager number must appear as an employee number"
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let a = db2_sample(&Db2Spec { seed: 7 });
        let b = db2_sample(&Db2Spec { seed: 7 });
        let c = db2_sample(&Db2Spec { seed: 8 });
        for t in 0..90 {
            for at in 0..19 {
                assert_eq!(a.relation.value_str(t, at), b.relation.value_str(t, at));
            }
        }
        // Different seeds differ somewhere (job/hire-year assignments).
        let differs = (0..90)
            .any(|t| (0..19).any(|at| a.relation.value_str(t, at) != c.relation.value_str(t, at)));
        assert!(differs);
    }

    #[test]
    fn base_tables_are_normalized() {
        let s = db2_sample(&Db2Spec::default());
        assert_eq!(s.employee.n_tuples(), 19);
        assert_eq!(s.employee.n_attrs(), 10);
        assert_eq!(s.department.n_tuples(), 7);
        assert_eq!(s.project.n_tuples(), 28);
        // The join of base-table cardinalities reproduces |R| = 90:
        // Σ_d |emp_d| · |proj_d| — spot-check via DepNo groupings.
        let wd = s.employee.attr_id("WorkDepNo").unwrap();
        let pd = s.project.attr_id("DeptNo").unwrap();
        let mut total = 0usize;
        for d in 1..=7 {
            let dn = format!("D{d:02}");
            let e = (0..s.employee.n_tuples())
                .filter(|&t| s.employee.value_str(t, wd) == dn)
                .count();
            let p = (0..s.project.n_tuples())
                .filter(|&t| s.project.value_str(t, pd) == dn)
                .count();
            total += e * p;
        }
        assert_eq!(total, 90);
    }

    #[test]
    fn no_nulls() {
        let s = db2_sample(&Db2Spec::default());
        for a in 0..19 {
            assert_eq!(s.relation.null_fraction(a), 0.0);
        }
    }
}
